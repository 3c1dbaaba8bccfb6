import random
from fractions import Fraction

import numpy as np
import pytest

from arrlog.fields import QQ, _is_prime
from arrlog.linalg import Matrix, kernel_basis, rref
from arrlog.modular import (
    PRIMES,
    ModulusTooLarge,
    fraction_matrix_to_mod,
    kernel_mod,
    kernel_qq_candidates,
    rank_mod,
    rational_reconstruct,
    rref_mod,
)


def _rref_mod_unblocked(A, p):
    """Oracle: the plain column loop (row swaps, full-row updates)."""
    A = np.array(A, dtype=np.int64) % p
    m, n = A.shape
    r = 0
    pivots = []
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            A[[r, pr]] = A[[pr, r]]
        A[r] = A[r] * pow(int(A[r, c]), p - 2, p) % p
        rows = np.nonzero(A[:, c])[0]
        rows = rows[rows != r]
        if rows.size:
            A[rows] = (A[rows] - np.outer(A[rows, c], A[r])) % p
        pivots.append(c)
        r += 1
    return A[: len(pivots)], pivots


def _assert_same_rref(A, p):
    R, pivots = rref_mod(A, p)
    R0, pivots0 = _rref_mod_unblocked(A, p)
    assert pivots == pivots0
    assert all(type(c) is int for c in pivots)
    assert R.dtype == np.int64 and R.shape == R0.shape
    assert np.array_equal(R, R0)
    return R, pivots


def _random_rank(rng, m, n, r, p, density=1.0):
    """m x n matrix mod p of rank at most r, entries dense or sparse."""
    def factor(a, b):
        F = rng.integers(0, p, (a, b))
        if density < 1.0:
            F[rng.random((a, b)) >= density] = 0
        return F

    L, R = factor(m, r), factor(r, n)
    A = np.zeros((m, n), dtype=np.int64)
    for i in range(r):  # exact rank-1 sums, reduced as they go
        A = (A + np.outer(L[:, i], R[i]) % p) % p
    return A


def test_prime_ladder():
    assert len(set(PRIMES)) == len(PRIMES)
    for p in PRIMES:
        assert _is_prime(p)
        assert p < 1 << 28


def test_rational_reconstruct_roundtrip():
    rng = random.Random(1)
    m = PRIMES[0] * PRIMES[1]
    for _ in range(50):
        n = rng.randint(-10**6, 10**6)
        d = rng.randint(1, 10**6)
        from math import gcd

        g = gcd(abs(n), d)
        n, d = n // g, d // g
        r = n * pow(d, -1, m) % m
        assert rational_reconstruct(r, m) == Fraction(n, d)


def test_rref_mod_matches_exact():
    rng = random.Random(2)
    p = PRIMES[0]
    for _ in range(10):
        rows = [[rng.randint(-20, 20) for _ in range(7)] for _ in range(5)]
        A = np.array(rows, dtype=np.int64)
        R, pivots = rref_mod(A, p)
        R_exact, pivots_exact, rk = rref(Matrix(QQ, rows))
        assert pivots == pivots_exact
        assert len(pivots) == rk
        assert np.array_equal(R, fraction_matrix_to_mod(R_exact.rows[:rk], p))


@pytest.mark.parametrize("p", [PRIMES[0], PRIMES[-1], 1009, 2])
def test_rref_mod_edge_shapes(p):
    rng = np.random.default_rng(5)
    for shape in [(0, 0), (0, 7), (7, 0), (5, 9), (1, 1), (1, 200), (200, 1)]:
        _assert_same_rref(np.zeros(shape, dtype=np.int64), p)
        _assert_same_rref(rng.integers(-p, 2 * p, shape), p)


@pytest.mark.parametrize(
    "m, n, r, density",
    [
        (30, 40, 30, 1.0),     # full row rank, narrower than the base case
        (40, 30, 30, 1.0),     # full column rank
        (50, 40, 12, 1.0),     # rank deficient, one base case
        (90, 300, 90, 1.0),    # wide, several recursion levels
        (300, 90, 60, 1.0),    # tall
        (160, 260, 70, 1.0),   # rank deficient across the recursion
        (200, 260, 200, 0.005),  # 0.5 % sparse factors
        (220, 180, 120, 0.05),
    ],
)
def test_rref_mod_matches_unblocked(m, n, r, density):
    rng = np.random.default_rng(m * 1000 + n)
    for p in (PRIMES[0], 1009):
        A = _random_rank(rng, m, n, r, p, density)
        R, _ = _assert_same_rref(A, p)
        if density == 1.0:
            assert R.shape[0] == r


def test_rref_mod_sparse_matrix():
    rng = np.random.default_rng(6)
    p = PRIMES[3]
    A = rng.integers(1, p, (150, 230))
    A[rng.random(A.shape) >= 0.005] = 0
    _assert_same_rref(A, p)


def test_rref_mod_worst_case_entries():
    # all entries p - 1 maximise every term of the split products
    p = PRIMES[0]
    for shape in [(3, 5), (70, 150), (150, 70)]:
        A = np.full(shape, p - 1, dtype=np.int64)
        R, pivots = _assert_same_rref(A, p)
        assert pivots == [0] and (R == 1).all()
    A = np.full((120, 200), p - 1, dtype=np.int64)
    A[np.arange(120), 3 * np.arange(120) // 2] = p - 2
    _assert_same_rref(A, p)


def test_rref_mod_more_than_1024_pivots():
    # A = M R0 with M unit lower triangular has RREF R0; 1030 of its pivots
    # fall in the first half of the columns, so one update has an inner
    # dimension above the 1024 chunk
    rng = np.random.default_rng(7)
    p = PRIMES[0]
    r, n = 1100, 2300
    pivots = sorted(rng.choice(1150, 1030, replace=False).tolist()) + sorted(
        (1150 + rng.choice(1150, 70, replace=False)).tolist()
    )
    R0 = rng.integers(0, p, (r, n))
    for i, c in enumerate(pivots):
        R0[i, :c] = 0
    R0[:, pivots] = np.eye(r, dtype=np.int64)
    M = np.tril(rng.random((r, r)) < 0.01, -1).astype(np.int64) + np.eye(r, dtype=np.int64)
    # sums of at most r entries below 2**28: exact in float64
    A = (M.astype(np.float64) @ R0.astype(np.float64)).astype(np.int64) % p
    R, got = rref_mod(A, p)
    assert got == pivots
    assert np.array_equal(R, R0)


def test_modulus_limit():
    A = np.eye(3, dtype=np.int64)
    assert rank_mod(A, PRIMES[0]) == 3
    for p in (1 << 28, (1 << 61) - 1):
        with pytest.raises(ModulusTooLarge):
            rref_mod(A, p)
        with pytest.raises(ModulusTooLarge):
            rank_mod(A, p)
        with pytest.raises(ModulusTooLarge):
            kernel_mod(A, p)


def test_kernel_mod_annihilates():
    rng = random.Random(3)
    p = PRIMES[1]
    A = np.array([[rng.randint(0, p - 1) for _ in range(6)] for _ in range(3)], dtype=np.int64)
    K = kernel_mod(A, p)
    assert K.shape[0] == 6 - rank_mod(A, p)
    assert not ((A @ K.T) % p).any()


def test_kernel_mod_unit_free_column_form():
    rng = np.random.default_rng(8)
    p = PRIMES[2]
    for m, n, r in [(4, 9, 3), (30, 80, 25), (10, 10, 10), (0, 5, 0)]:
        A = _random_rank(rng, m, n, r, p)
        R, pivots = rref_mod(A, p)
        free = [j for j in range(n) if j not in set(pivots)]
        expected = np.zeros((len(free), n), dtype=np.int64)
        for k, j in enumerate(free):
            expected[k, j] = 1
            for i, c in enumerate(pivots):
                expected[k, c] = (-int(R[i, j])) % p
        assert np.array_equal(kernel_mod(A, p), expected)


def test_kernel_qq_candidates_exact():
    rng = random.Random(4)
    for _ in range(8):
        rows = [[rng.randint(-30, 30) for _ in range(8)] for _ in range(5)]

        def build(p, rows=rows):
            return np.array(rows, dtype=np.int64) % p

        vectors, rk, pivots, primes = kernel_qq_candidates(build, 8)
        exact = kernel_basis(Matrix(QQ, rows))
        assert len(vectors) == len(exact)
        # candidates must annihilate the exact matrix
        for v in vectors:
            for row in rows:
                assert sum(a * b for a, b in zip(row, v)) == 0


def test_fraction_matrix_to_mod():
    p = PRIMES[0]
    M = fraction_matrix_to_mod([[Fraction(1, 2), 3]], p)
    assert (2 * M[0, 0]) % p == 1
    assert M[0, 1] == 3
