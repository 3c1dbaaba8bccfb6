import random
from fractions import Fraction

import numpy as np
import pytest

from arrlog.fields import GF, QQ
from arrlog.linalg import Echelon, Matrix, det, inverse, kernel_basis, rank, rref
from arrlog.modular import rref_mod


def test_rref_identity():
    M = Matrix(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    R, pivots, rk = rref(M)
    assert R == M
    assert pivots == [0, 1, 2]
    assert rk == 3


def test_rref_zero():
    M = Matrix(QQ, [[0, 0, 0, 0], [0, 0, 0, 0]])
    R, pivots, rk = rref(M)
    assert R == M
    assert rk == 0


def test_rref_rank_one():
    # hand row reduction: row2 = 2*row1, so rank 1 and rref [[1,2],[0,0]]
    M = Matrix(QQ, [[1, 2], [2, 4]])
    R, pivots, rk = rref(M)
    assert rk == 1
    assert R.rows == [[1, 2], [0, 0]]


def test_rref_idempotent():
    rng = random.Random(7)
    for _ in range(20):
        M = Matrix(QQ, [[rng.randint(-5, 5) for _ in range(5)] for _ in range(4)])
        R1, p1, r1 = rref(M)
        R2, p2, r2 = rref(R1)
        assert R1 == R2 and p1 == p2


def test_rank_transpose_fp():
    F = GF(101)
    rng = random.Random(3)
    for _ in range(25):
        M = Matrix(F, [[rng.randrange(101) for _ in range(6)] for _ in range(4)])
        assert rank(M) == rank(M.transpose())


def test_kernel_identity_empty():
    assert kernel_basis(Matrix(QQ, [[int(i == j) for j in range(4)] for i in range(4)])) == []


def test_kernel_zero_row():
    basis = kernel_basis(Matrix(QQ, [[0, 0, 0]]))
    assert len(basis) == 3


def test_kernel_example():
    # solving [[1,1,0],[0,1,1]] v = 0 by hand gives v = t*(1,-1,1)
    M = Matrix(QQ, [[1, 1, 0], [0, 1, 1]])
    basis = kernel_basis(M)
    assert len(basis) == 1
    v = basis[0]
    scale = v[0]
    assert [x / scale for x in v] == [1, -1, 1]


def test_kernel_exactness_random():
    rng = random.Random(11)
    for _ in range(15):
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(6)] for _ in range(3)]
        M = Matrix(QQ, rows)
        for v in kernel_basis(M):
            assert all(x == 0 for x in M.mul_vec(v))


def test_rref_row_order_invariance():
    rng = random.Random(5)
    rows = [[rng.randint(-4, 4) for _ in range(5)] for _ in range(4)]
    M1 = Matrix(QQ, rows)
    M2 = Matrix(QQ, list(reversed(rows)))
    assert rref(M1)[0] == rref(M2)[0]


def _random_rows(rng, m, n, shape):
    rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
    if shape == "zero-rows":
        for i in range(0, m, 2):
            rows[i] = [0] * n
    elif shape == "repeated-rows":
        for i in range(1, m, 2):
            rows[i] = [3 * x for x in rows[i - 1]]
    return rows


@pytest.mark.parametrize("m,n,shape", [
    (3, 7, "random"),
    (8, 3, "random"),
    (6, 6, "zero-rows"),
    (7, 5, "repeated-rows"),
], ids=["wide", "tall", "zero-rows", "repeated-rows"])
def test_rref_matches_sympy(m, n, shape):
    import sympy

    rng = random.Random(m * 10 + n)
    for _ in range(8):
        rows = _random_rows(rng, m, n, shape)
        R, pivots, rk = rref(Matrix(QQ, rows))
        want, want_pivots = sympy.Matrix(rows).rref()
        assert pivots == list(want_pivots) and rk == len(want_pivots)
        assert R.rows == [[Fraction(int(x.p), int(x.q)) for x in want.row(i)] for i in range(m)]


@pytest.mark.parametrize("shape", ["random", "zero-rows", "repeated-rows"])
def test_rref_matches_rref_mod(shape):
    p = 1009
    F = GF(p)
    rng = random.Random(17)
    for m, n in [(3, 7), (8, 3), (6, 6)]:
        rows = [[x % p for x in r] for r in _random_rows(rng, m, n, shape)]
        R, pivots, rk = rref(Matrix(F, rows))
        R_mod, pivots_mod = rref_mod(np.array(rows, dtype=np.int64), p)
        assert pivots == pivots_mod and rk == len(pivots_mod)
        assert R.rows[:rk] == R_mod.tolist()
        assert all(not any(r) for r in R.rows[rk:])


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "F7"])
def test_inverse(field):
    rng = random.Random(23)
    n_checked = 0
    for n in range(1, 6):
        for _ in range(10):
            M = Matrix(field, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            if rank(M) < n:
                with pytest.raises(ValueError):
                    inverse(M)
                continue
            Minv = inverse(M)
            for j in range(n):
                col = [M.rows[i][j] for i in range(n)]
                assert Minv.mul_vec(col) == [field.one if i == j else field.zero for i in range(n)]
            n_checked += 1
    assert n_checked > 20
    with pytest.raises(ValueError):
        inverse(Matrix(field, [[1, 2], [2, 4]]))


def test_empty_echelon_kernel_is_the_unit_vectors():
    for field in (QQ, GF(7)):
        for n in range(4):
            units = [[field.one if i == j else field.zero for i in range(n)] for j in range(n)]
            assert Echelon(field, n).kernel() == units
            assert Echelon.from_key(field, n, ()).kernel() == units


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "F7"])
def test_det_matches_sympy(field):
    import sympy

    rng = random.Random(11)
    for n in range(5):
        for _ in range(6):
            rows = [[rng.randint(-4, 4) if rng.random() < 0.7 else 0 for _ in range(n)] for _ in range(n)]
            want = sympy.Matrix(n, n, [x for r in rows for x in r]).det()
            got = det(field, [[field.of(x) for x in r] for r in rows])
            assert got == field.of(int(want))
    assert det(field, []) == field.one
