import random
from fractions import Fraction

import pytest

from arrlog.fields import GF, QQ, FieldMismatch
from arrlog.linalg import Matrix, det, in_span, kernel_basis, rank, rref, solve


def test_rref_identity():
    M = Matrix.identity(QQ, 3)
    R, pivots, rk = rref(M)
    assert R == M
    assert pivots == [0, 1, 2]
    assert rk == 3


def test_rref_zero():
    M = Matrix.zeros(QQ, 2, 4)
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
    assert kernel_basis(Matrix.identity(QQ, 4)) == []


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


def test_in_span():
    assert in_span([0, 0], [[1, 2]])
    assert in_span([2, 4], [[1, 2]])
    assert not in_span([1, 0], [[0, 1]])
    assert in_span([0, 0], [])
    with pytest.raises(ValueError):
        in_span([1, 0, 0], [[1, 2]])


def test_field_mismatch():
    A = Matrix(QQ, [[1]])
    B = Matrix(GF(7), [[1]])
    with pytest.raises(FieldMismatch):
        A.matmul(B)


def test_solve():
    M = Matrix(QQ, [[1, 1], [0, 1]])
    assert solve(M, [3, 1]) == [2, 1]
    assert solve(Matrix(QQ, [[1, 1], [1, 1]]), [1, 2]) is None


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
