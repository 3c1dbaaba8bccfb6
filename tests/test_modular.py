import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arrlog.fields import QQ, _is_prime
from arrlog.linalg import Matrix, kernel_basis, rref
from arrlog.modular import (
    PRIMES,
    ModulusTooLarge,
    _addmul,
    kernel_mod,
    kernel_qq_candidates,
    rank_mod,
    rational_reconstruct,
    reconstruct_matrix,
    rref_mod,
    sparse_pivots_mod,
)


def fraction_matrix_to_mod(rows, p: int) -> np.ndarray:
    """Oracle: reduce a matrix of Fractions/ints mod p (denominators inverted)."""
    out = np.zeros((len(rows), len(rows[0]) if rows else 0), dtype=np.int64)
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if isinstance(x, Fraction):
                num = x.numerator % p
                den = x.denominator % p
                if den == 0:
                    raise ZeroDivisionError("denominator divisible by p")
                out[i, j] = num * pow(den, p - 2, p) % p
            else:
                out[i, j] = int(x) % p
    return out


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
    assert rref_mod(A, p, reduced=False) == (None, pivots0)
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


@pytest.mark.parametrize("p", [7, PRIMES[0]])
def test_addmul_is_exact_and_empty_operands_are_a_no_op(p):
    rng = np.random.default_rng(p % 1000)
    X = rng.integers(0, p, (5, 1100))
    Y = rng.integers(0, p, (1100, 300))
    C = rng.integers(0, p, (5, 300))
    want = [[(int(C[i, j]) + sum(int(a) * int(b) for a, b in zip(X[i], Y[:, j]))) % p for j in range(300)]
            for i in range(5)]
    _addmul(C, X, Y, p)
    assert C.tolist() == want
    # a zero-width C (a constraint block whose columns are all left out),
    # an empty inner dimension, and no rows
    for c, x, y in (((5, 0), (5, 4), (4, 0)), ((5, 3), (5, 0), (0, 3)), ((0, 3), (0, 4), (4, 3))):
        C = rng.integers(0, p, c)
        before = C.copy()
        _addmul(C, rng.integers(0, p, x), rng.integers(0, p, y), p)
        assert np.array_equal(C, before)


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
    assert rref_mod(A, p, reduced=False) == (None, pivots)


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 160),
    n=st.integers(1, 300),
    rank_frac=st.floats(0.0, 1.0),
    density=st.sampled_from([0.005, 0.02, 0.1, 0.5, 1.0]),
    p=st.sampled_from([3, 5, 7, PRIMES[0]]),
    seed=st.integers(0, 2**32 - 1),
)
def test_rref_mod_pivots_only_matches_unblocked(m, n, rank_frac, density, p, seed):
    # widths on both sides of the 128-column threshold of the recursion;
    # small primes make rank drops and repeated entries common
    rng = np.random.default_rng(seed)
    r = round(rank_frac * min(m, n))
    A = _random_rank(rng, m, n, r, p, density)
    _, pivots0 = _rref_mod_unblocked(A, p)
    assert rref_mod(A, p, reduced=False) == (None, pivots0)
    assert rank_mod(A, p) == len(pivots0)


@pytest.mark.parametrize("p", [PRIMES[0], 1009])
@pytest.mark.parametrize(
    "m, n, r, density",
    [
        (300, 150, 140, 0.05),  # tall: eliminated as 150 x 300
        (100, 80, 75, 0.1),
        (300, 150, 150, 1.0),
        (40, 12, 12, 0.3),
        (200, 60, 60, 0.02),
        (12, 40, 9, 1.0),  # wide; a short side of at most 64 is ranked as given
        (150, 300, 150, 0.05),
        (30, 30, 30, 0.1),  # square
        (90, 90, 90, 0.05),
        (30, 30, 17, 1.0),
        (10, 8, 0, 1.0),  # zero
        (0, 7, 0, 1.0),
        (7, 0, 0, 1.0),
    ],
)
def test_rank_mod_is_the_pivot_count_of_the_untouched_matrix(m, n, r, density, p):
    # rank_mod reorders and may transpose; the rank must not move
    rng = np.random.default_rng(m * 1000 + n + r)
    A = _random_rank(rng, m, n, r, p, density)
    assert A.shape == (m, n)
    rank = len(rref_mod(A, p, reduced=False)[1])
    assert rank == r or density < 1.0
    assert rank_mod(A, p) == rank


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 40),
    n=st.integers(1, 150),
    rank_frac=st.floats(0.0, 1.0),
    density=st.sampled_from([0.0, 0.01, 0.05, 0.3, 1.0]),
    shared_lead=st.booleans(),
    zero_rows=st.booleans(),
    p=st.sampled_from([3, PRIMES[0]]),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=6, n=9, rank_frac=1.0, density=0.0, shared_lead=False, zero_rows=False, p=3, seed=0)  # zero matrix
@example(m=1, n=70, rank_frac=1.0, density=0.05, shared_lead=False, zero_rows=False, p=3, seed=1)  # 1 x n
@example(m=30, n=1, rank_frac=1.0, density=0.3, shared_lead=False, zero_rows=True, p=PRIMES[0], seed=2)  # m x 1
@example(m=25, n=140, rank_frac=0.3, density=0.05, shared_lead=True, zero_rows=False, p=PRIMES[0], seed=3)
@example(m=40, n=60, rank_frac=0.5, density=1.0, shared_lead=True, zero_rows=True, p=3, seed=4)
def test_sparse_pivots_mod_matches_rref_mod(m, n, rank_frac, density, shared_lead, zero_rows, p, seed):
    # the pivots read off the entries are those of the dense pivots-only
    # elimination: rows beyond the rank reduce to zero, `shared_lead` puts
    # every row's leading entry in one column, `zero_rows` clears some
    # rows; the entries come unsorted, unreduced, with explicit zeros
    rng = np.random.default_rng(seed)
    A = _random_rank(rng, m, n, round(rank_frac * min(m, n)), p, density)
    if shared_lead:
        c = int(rng.integers(n))
        A[:, :c] = 0
        A[:, c] = rng.integers(1, p, m)
    if zero_rows:
        A[rng.random(m) < 0.3] = 0
    rows, cols = np.nonzero(A)
    zeros = np.argwhere(A == 0)
    zeros = zeros[rng.random(len(zeros)) < 0.05]
    rows, cols = np.append(rows, zeros[:, 0]), np.append(cols, zeros[:, 1])
    order = rng.permutation(rows.size)
    rows, cols = rows[order], cols[order]
    vals = A[rows, cols] + p * rng.integers(-2, 3, rows.size)
    pivots = sparse_pivots_mod(rows, cols, vals, n, p)
    assert pivots == rref_mod(A, p, reduced=False)[1]
    assert all(type(c) is int for c in pivots)
    with pytest.raises(ModulusTooLarge):
        sparse_pivots_mod(rows, cols, vals, n, 1 << 28)


def test_modulus_limit():
    A = np.eye(3, dtype=np.int64)
    assert rank_mod(A, PRIMES[0]) == 3
    for p in (1 << 28, (1 << 61) - 1):
        with pytest.raises(ModulusTooLarge):
            rref_mod(A, p)
        with pytest.raises(ModulusTooLarge):
            rref_mod(A, p, reduced=False)
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

        vectors, rk, pivots, primes = kernel_qq_candidates(build, 8, _verified(rows))
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


# ---------------------------------------------------------------------------
# reconstruction: the from-scratch CRT of every attempt is the oracle
# ---------------------------------------------------------------------------


def _reconstruct_from_scratch(rows_mod, primes):
    """Oracle: CRT over all primes, then lift every entry in row order."""
    m = 1
    combined = None
    for R, p in zip(rows_mod, primes):
        if m == 1:
            combined = R.astype(object)
            m = p
        else:
            x = pow(m, -1, p)
            combined = (combined + (R.astype(object) - combined) * x % p * m) % (m * p)
            m *= p
    out = []
    for row in combined:
        lifted = []
        for a in row:
            f = rational_reconstruct(int(a), m)
            if f is None:
                return None
            lifted.append(f)
        out.append(lifted)
    return out


def _verified(rows):
    def accept(vectors):
        if all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows for v in vectors):
            return vectors
        return None

    return accept


def _kernel_qq_from_scratch(build, ncols, accept, min_primes=1):
    """Oracle: the prime loop with a from-scratch reconstruction of the whole kernel per attempt."""
    results = {}
    for p in PRIMES:
        A = build(p)
        R, pivots = rref_mod(A, p)
        free = [j for j in range(ncols) if j not in set(pivots)]
        results.setdefault(tuple(pivots), []).append((p, R[:, free]))
        best = max(results, key=lambda k: (len(k), [-c for c in k]))
        group = results[best]
        if len(group) >= min_primes:
            lifted = _reconstruct_from_scratch([B for _, B in group], [q for q, _ in group])
            if lifted is not None:
                pset = set(best)
                vectors = []
                for fj, j in enumerate(c for c in range(ncols) if c not in pset):
                    v = [Fraction(0)] * ncols
                    v[j] = Fraction(1)
                    for i, c in enumerate(best):
                        v[c] = -lifted[i][fj]
                    vectors.append(v)
                result = accept(vectors)
                if result is not None:
                    return result, len(best), best, tuple(q for q, _ in group)
            min_primes += 1
    raise AssertionError("oracle ran out of primes")


def _int_build(rows):
    def build(p):
        return np.array([[x % p for x in row] for row in rows], dtype=np.int64)

    return build


def test_kernel_qq_candidates_matches_from_scratch_reconstruction():
    # large entries need many primes, so most attempts fail first
    rng = random.Random(11)
    for m, n, bound in [(3, 7, 10**3), (5, 11, 10**6), (6, 9, 10**9), (4, 7, 50)]:
        rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]
        got = kernel_qq_candidates(_int_build(rows), n, _verified(rows))
        want = _kernel_qq_from_scratch(_int_build(rows), n, _verified(rows))
        assert got == want
        assert len(got[3]) >= 2
        for v in got[0]:
            assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows)
        # a rejected candidate resumes the search: the answer of a restart
        # asking for one more prime, built from one more prime only
        built = []

        def build(p, inner=_int_build(rows)):
            built.append(p)
            return inner(p)

        offers = []

        def reject_first(vectors, verified=_verified(rows)):
            # the first candidate that verifies is rejected too
            result = verified(vectors)
            if result is not None:
                offers.append(vectors)
            return result if len(offers) > 1 else None

        resumed = kernel_qq_candidates(build, n, reject_first)
        assert resumed == _kernel_qq_from_scratch(_int_build(rows), n, _verified(rows), min_primes=len(want[3]) + 1)
        assert len(built) == PRIMES.index(want[3][-1]) + 2


def test_kernel_qq_candidates_bad_first_prime():
    # the second row is the first plus P e_1, so rank drops mod P = PRIMES[0]:
    # the group of that prime loses to the later ones
    P = PRIMES[0]
    rng = random.Random(12)
    base = [rng.randint(-10**8, 10**8) for _ in range(6)]
    rows = [base, [x + (P if j == 1 else 0) for j, x in enumerate(base)],
            [rng.randint(-10**8, 10**8) for _ in range(6)]]
    got = kernel_qq_candidates(_int_build(rows), 6, _verified(rows))
    assert got == _kernel_qq_from_scratch(_int_build(rows), 6, _verified(rows))
    assert P not in got[3] and got[1] == 3


def test_kernel_qq_candidates_passes_over_a_prime_that_does_not_reduce_the_inputs():
    # the inputs have a denominator P0 = PRIMES[0]: build(P0) raises, that
    # prime joins no group, and the kernel comes from the next primes
    P0 = PRIMES[0]
    rows = [[Fraction(1, P0), Fraction(2, P0), 3], [4, 5, 6]]
    built = []

    def build(p):
        built.append(p)
        return fraction_matrix_to_mod(rows, p)

    got = kernel_qq_candidates(build, 3, _verified(rows))
    assert got[0] == [[5 * P0 - 4, 2 - 4 * P0, 1]]
    assert got[1:3] == (2, (0, 1)) and P0 not in got[3]
    assert built[0] == P0 and len(built) == len(got[3]) + 1


def test_reconstruct_matrix_matches_from_scratch():
    rng = np.random.default_rng(13)
    for shape in [(3, 4), (1, 1), (2, 0), (0, 3)]:
        for k in (1, 2, 3, 6):
            primes = list(PRIMES[:k])
            # below three primes the lift may be wrong or missing (callers
            # certify it); from three on the heights are covered
            fracs = [[Fraction(int(rng.integers(-10**6, 10**6)), int(rng.integers(1, 10**5)))
                      for _ in range(shape[1])] for _ in range(shape[0])]
            mats = [fraction_matrix_to_mod(fracs, p).reshape(shape) for p in primes]
            got = reconstruct_matrix(mats, primes)
            assert got == _reconstruct_from_scratch(mats, primes)
            if k >= 3:
                assert got == fracs


def test_crt_lift_retries_from_the_failed_entry():
    # lifting with too few primes fails; adding primes then gives the same
    # answer as one reconstruction over all of them
    from arrlog.modular import _CRTLift

    fracs = [[Fraction(3, 7), Fraction(-2**70 + 1, 5**20)], [Fraction(1), Fraction(0)]]
    acc = _CRTLift()
    results = []
    for p in PRIMES[:8]:
        acc.add(p, fraction_matrix_to_mod(fracs, p))
        results.append(acc.lift())
    assert results[0] != fracs and results[-1] == fracs
    for k, res in enumerate(results, start=1):
        mats = [fraction_matrix_to_mod(fracs, p) for p in PRIMES[:k]]
        assert res == _reconstruct_from_scratch(mats, PRIMES[:k])


def test_crt_lift_sparse_positions_match_from_scratch():
    # P0 | 3 P0 / 7 and P1 | 2 P1, so those entries vanish mod one prime and
    # not the other: their positions join the kept set only at a later prime
    from arrlog.modular import _CRTLift

    P0, P1 = PRIMES[0], PRIMES[1]
    z = Fraction(0)
    cases = [
        [[z, Fraction(3 * P0, 7), z, Fraction(3, 7)], [Fraction(2 * P1), z, Fraction(3, 7), z]],
        [[z] * 5, [z] * 5],  # all zero
        [[Fraction(P0 * P1, 11), z, Fraction(-5, 3)]],  # zero mod the first two primes
        [[Fraction(-2**70 + 1, 5**20), z, Fraction(P0)], [z, Fraction(1, 2), z]],
    ]
    for fracs in cases:
        acc = _CRTLift()
        lifts = []
        for k, p in enumerate(PRIMES[:8], start=1):
            acc.add(p, fraction_matrix_to_mod(fracs, p))
            got = acc.lift()
            mats = [fraction_matrix_to_mod(fracs, q) for q in PRIMES[:k]]
            assert got == _reconstruct_from_scratch(mats, PRIMES[:k])
            assert got == reconstruct_matrix(mats, PRIMES[:k])
            lifts.append(got)
        assert lifts[-1] == fracs
        assert all(type(x) is Fraction for row in lifts[-1] for x in row)
    # the all-zero block lifts at once
    zero = [fraction_matrix_to_mod(cases[1], p) for p in PRIMES[:2]]
    assert reconstruct_matrix(zero, PRIMES[:2]) == cases[1]


def test_kernel_qq_candidates_sparse_block_matches_from_scratch():
    # a block that is mostly zero, with entries divisible by ladder primes,
    # needing several lifts
    rng = random.Random(14)
    P0, P1 = PRIMES[0], PRIMES[1]
    for m, n in [(4, 30), (6, 41), (3, 12)]:
        rows = [[0] * n for _ in range(m)]
        for i in range(m):
            rows[i][i] = rng.choice([1, 3, P0, 2 * P1])
            for j in rng.sample(range(m, n), 3):
                rows[i][j] = rng.choice([P0, P1, -P0 * 7, rng.randint(-10**6, 10**6)])
        got = kernel_qq_candidates(_int_build(rows), n, _verified(rows))
        want = _kernel_qq_from_scratch(_int_build(rows), n, _verified(rows))
        assert got == want
        for v in got[0]:
            assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows)


# ---------------------------------------------------------------------------
# part of a kernel: the caller builds the matrix on the columns it lives on
# ---------------------------------------------------------------------------


def _low_high_kernel_rows():
    """Rows of rank 3 in 5 columns whose RREF kernel has a low-height vector
    (free column 3) and one of about 200 bits (free column 4); the rows are
    mixed by a unimodular matrix, so the matrix itself is not reduced."""
    rng = random.Random(15)
    low = [1, -2, 3]
    high = [rng.randint(10**29, 10**30) * rng.choice((-1, 1)) for _ in range(3)]
    reduced = [[int(i == k) for k in range(3)] + [low[i], high[i]] for i in range(3)]
    mix = [[1, 0, 0], [2, 1, 0], [-3, 5, 1]]
    rows = [[sum(mix[i][k] * reduced[k][j] for k in range(3)) for j in range(5)] for i in range(3)]
    kernel = [[-x for x in low] + [1, 0], [-x for x in high] + [0, 1]]
    return rows, kernel


def _counting(build):
    built = []

    def counted(p):
        built.append(p)
        return build(p)

    return counted, built


def test_kernel_qq_candidates_on_the_columns_of_a_low_vector_lifts_it_alone():
    # the whole kernel needs the primes of its 200-bit vector; built on the
    # columns the low vector lives on, the matrix has that vector as its
    # whole kernel, and it lifts from the first prime alone
    rows, kernel = _low_high_kernel_rows()
    whole_build, whole_built = _counting(_int_build(rows))
    whole = kernel_qq_candidates(whole_build, 5, _verified(rows))
    assert whole[0] == kernel and whole[1:3] == (3, (0, 1, 2))
    low_rows = [row[:4] for row in rows]
    low_build, low_built = _counting(_int_build(low_rows))
    got = kernel_qq_candidates(low_build, 4, _verified(low_rows))
    assert got[0] == [kernel[0][:4]] and got[1:3] == (3, (0, 1, 2))
    assert got[3] == PRIMES[:1] and low_built == [PRIMES[0]]
    assert len(low_built) < len(whole_built)
