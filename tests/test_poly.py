import random
from math import comb

import pytest

from arrlog.fields import GF, QQ
from arrlog.linalg import Matrix, kernel_basis
from arrlog.poly import (
    LinearForm,
    Poly,
    Pullback,
    divide_by_linear,
    divisibility_row_data,
    divisible_by_linear_power,
    monomial_basis,
    poly_det,
    product,
    sum_of_products,
)


def P(terms, ell=2, field=QQ):
    return Poly(field, ell, {tuple(m): field.of(c) for m, c in terms.items()})


def test_monomial_basis_counts():
    assert monomial_basis(3, 0) == ((0, 0, 0),)
    assert len(monomial_basis(3, 2)) == 6  # C(4,2) by hand
    assert monomial_basis(2, -1) == ()
    for ell in range(1, 5):
        for d in range(6):
            assert len(monomial_basis(ell, d)) == comb(d + ell - 1, ell - 1)


def test_monomial_basis_order():
    basis = monomial_basis(2, 2)
    assert basis == ((2, 0), (1, 1), (0, 2))
    # strictly descending lex
    assert all(a > b for a, b in zip(basis, basis[1:]))


def test_poly_arithmetic_roundtrip():
    f = P({(1, 0): 2, (0, 1): -1})
    g = P({(1, 0): 1, (0, 1): 1})
    h = f * g
    assert h == P({(2, 0): 2, (1, 1): 1, (0, 2): -1})
    assert (f + g) - g == f
    assert f.scale(0).is_zero()


def test_substitute_linear_identity_and_swap():
    f = Poly.variable(QQ, 2, 0)
    assert Pullback.linear(QQ, Matrix(QQ, [[1, 0], [0, 1]]).rows)(f) == f
    swap = Matrix(QQ, [[0, 1], [1, 0]])
    x1sq = P({(2, 0): 1})
    assert Pullback.linear(QQ, swap.rows)(x1sq) == P({(0, 2): 1})


def test_substitute_linear_vs_sympy():
    import sympy

    x0, x1, x2 = sympy.symbols("x0 x1 x2")
    rng = random.Random(9)
    for _ in range(5):
        terms = {
            tuple(v): rng.randint(-3, 3)
            for v in [(2, 0, 0), (1, 1, 0), (0, 1, 1), (0, 0, 2)]
        }
        T = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        M = Matrix(QQ, T)
        from arrlog.linalg import rank

        if rank(M) != 3:
            continue
        f = Poly(QQ, 3, {m: QQ.of(c) for m, c in terms.items() if c})
        got = Pullback.linear(QQ, M.rows)(f)
        sf = sum(
            c * x0**m[0] * x1**m[1] * x2**m[2] for m, c in terms.items()
        )
        subs = {
            x0: T[0][0] * x0 + T[0][1] * x1 + T[0][2] * x2,
            x1: T[1][0] * x0 + T[1][1] * x1 + T[1][2] * x2,
            x2: T[2][0] * x0 + T[2][1] * x1 + T[2][2] * x2,
        }
        expected = sympy.expand(sf.xreplace(subs))
        got_sym = sum(
            sympy.Rational(c) * x0**m[0] * x1**m[1] * x2**m[2]
            for m, c in got.terms.items()
        )
        assert sympy.expand(got_sym - expected) == 0


def test_substitute_roundtrip():
    T = Matrix(QQ, [[1, 1], [0, 1]])
    Tinv = Matrix(QQ, [[1, -1], [0, 1]])
    f = P({(3, 0): 2, (1, 2): -5})
    assert Pullback.linear(QQ, Tinv.rows)(Pullback.linear(QQ, T.rows)(f)) == f


def substitute_per_term(f, images):
    """Reference substitution x_i -> images[i]: every term a chain of Poly products."""
    tgt_ell = images[0].ell
    out = Poly.zero(f.field, tgt_ell)
    for m, c in f.terms.items():
        term = Poly.const(f.field, tgt_ell, c)
        for image, e in zip(images, m):
            term = term * image**e
        out = out + term
    return out


def _random_coeff(rng, field):
    if field == QQ:
        return QQ.of(rng.randint(-6, 6)) / rng.randint(1, 4)
    return field.of(rng.randrange(field.p))


def _random_poly(rng, field, ell, degrees, nterms):
    terms = {}
    for _ in range(nterms):
        d = rng.choice(degrees)
        cuts = sorted(rng.randint(0, d) for _ in range(ell - 1))
        terms[tuple(b - a for a, b in zip([0] + cuts, cuts + [d]))] = _random_coeff(rng, field)
    return Poly(field, ell, terms)


def _restriction_images(rng, field, ell):
    """x_t -> y_t' for t != k and x_k -> a linear form: the shape of a hyperplane chart."""
    k = rng.randrange(ell)
    images, t_out = [], 0
    for t in range(ell):
        if t == k:
            images.append(_random_poly(rng, field, ell - 1, [1], ell - 1))
        else:
            images.append(Poly.variable(field, ell - 1, t_out))
            t_out += 1
    return images


FIELDS = pytest.mark.parametrize("field", [QQ, GF(1009)], ids=["QQ", "F1009"])


@FIELDS
def test_pullback_matches_per_term_substitution(field):
    rng = random.Random(13)
    for ell in range(2, 6):
        shapes = {
            "dense": [_random_poly(rng, field, ell, [1], 2 * ell) for _ in range(ell)],
            "sparse": [_random_poly(rng, field, ell - 1, [1], 2) for _ in range(ell)],
            "restriction": _restriction_images(rng, field, ell),
            "quadratic": [_random_poly(rng, field, 3, [0, 1, 2], 3) for _ in range(ell)],
        }
        for name, images in shapes.items():
            top = 4 if name == "quadratic" else 8
            for d in range(top + 1):
                f = _random_poly(rng, field, ell, [d], 6)
                assert Pullback(images)(f) == substitute_per_term(f, images), (ell, name, d)
            mixed = _random_poly(rng, field, ell, list(range(top + 1)), 10)
            assert Pullback(images)(mixed) == substitute_per_term(mixed, images), (ell, name)


@FIELDS
def test_one_pullback_serves_polynomials_of_every_degree(field):
    rng = random.Random(29)
    for ell in range(2, 6):
        images = _restriction_images(rng, field, ell)
        pull = Pullback(images)
        polys = [_random_poly(rng, field, ell, [d], 5) for d in (8, 0, 3, 8, 1, 5, 2)]
        polys.append(_random_poly(rng, field, ell, list(range(9)), 12))
        for f in polys + polys[:2]:  # the first two again, from a warm cache
            assert pull(f) == substitute_per_term(f, images)


def test_pullback_of_zero_and_constants():
    images = [Poly.variable(QQ, 2, 1), Poly.zero(QQ, 2), Poly.variable(QQ, 2, 0)]
    pull = Pullback(images)
    assert pull(Poly.zero(QQ, 3)).is_zero()
    assert pull(Poly.const(QQ, 3, 5)) == Poly.const(QQ, 2, 5)
    assert pull(P({(1, 1, 0): 1, (2, 0, 1): 3}, ell=3)) == P({(1, 2): 3})
    with pytest.raises(ValueError):
        pull(Poly.variable(QQ, 2, 0))
    with pytest.raises(ValueError):
        Pullback([])


def test_substitute_linear_matches_per_term_substitution():
    rng = random.Random(31)
    for field in (QQ, GF(1009)):
        for ell in range(2, 5):
            rows = [[_random_coeff(rng, field) for _ in range(ell)] for _ in range(ell)]
            f = _random_poly(rng, field, ell, list(range(6)), 8)
            images = [Poly(field, ell, {tuple(int(s == t) for s in range(ell)): c for t, c in enumerate(r) if c}) for r in rows]
            assert Pullback.linear(field, rows)(f) == substitute_per_term(f, images)


@FIELDS
def test_sum_of_products_matches_poly_arithmetic(field):
    rng = random.Random(37)
    pairs = [(_random_poly(rng, field, 3, [d], 4), _random_poly(rng, field, 3, [4 - d], 4)) for d in range(5)]
    pairs.append((Poly.zero(field, 3), _random_poly(rng, field, 3, [4], 4)))
    expected = Poly.zero(field, 3)
    for a, b in pairs:
        expected = expected + a * b
    assert sum_of_products(field, 3, pairs) == expected
    assert sum_of_products(field, 3, []).is_zero()
    a = _random_poly(rng, field, 3, [2], 4)
    assert sum_of_products(field, 3, [(a, Poly.const(field, 3, 1)), (a, Poly.const(field, 3, -1))]).is_zero()


def test_divide_by_linear():
    alpha = LinearForm(QQ, [1, 1])  # x0 + x1
    f = P({(2, 0): 1, (0, 2): -1})  # x0^2 - x1^2 = (x0+x1)(x0-x1)
    q, r = divide_by_linear(f, alpha)
    assert r.is_zero()
    assert q == P({(1, 0): 1, (0, 1): -1})
    g = P({(2, 0): 1})
    q, r = divide_by_linear(g, alpha)
    assert q * alpha.as_poly() + r == g
    assert divisible_by_linear_power(f, alpha, 1)
    assert not divisible_by_linear_power(f, alpha, 2)


def _divisibility_matrix(poly_degree, alpha, m):
    """Dense matrix of `divisibility_row_data`: its kernel on S_poly_degree is {f : alpha^m | f}."""
    fld = alpha.field
    nrows, columns = divisibility_row_data(alpha, m, poly_degree)
    rows = [[fld.zero] * len(columns) for _ in range(nrows)]
    for j, col in enumerate(columns):
        for i, c in col:
            rows[i][j] = fld.add(rows[i][j], c)
    return Matrix(fld, rows)


def test_divisibility_constraints_examples():
    # alpha = x1, m = 1, degree 1 in 2 vars: kernel spans {x1}
    alpha = LinearForm(QQ, [1, 0])
    M = _divisibility_matrix(1, alpha, 1)
    ker = kernel_basis(M)
    assert len(ker) == 1
    f = Poly.from_vector(QQ, 2, 1, ker[0])
    assert divisible_by_linear_power(f, alpha, 1)

    # alpha = x0 + x1: only multiples of alpha among linear forms
    alpha = LinearForm(QQ, [1, 1])
    ker = kernel_basis(_divisibility_matrix(1, alpha, 1))
    assert len(ker) == 1

    # no linear form is divisible by x0^2
    ker = kernel_basis(_divisibility_matrix(1, LinearForm(QQ, [1, 0]), 2))
    assert ker == []


def test_divisibility_kernel_dimension_random():
    # divisibility by alpha^m is a free condition: kernel dim = dim S_{d-m}
    rng = random.Random(21)
    F = GF(10007)
    for _ in range(20):
        ell = rng.randint(2, 4)
        d = rng.randint(0, 6)
        m = rng.randint(1, min(3, d + 1))
        coeffs = [rng.randrange(10007) for _ in range(ell)]
        if not any(coeffs):
            coeffs[0] = 1
        alpha = LinearForm(F, coeffs)
        ker = kernel_basis(_divisibility_matrix(d, alpha, m))
        expected = comb(d - m + ell - 1, ell - 1) if d >= m else 0
        assert len(ker) == expected
        for v in ker:
            f = Poly.from_vector(F, ell, d, v)
            assert divisible_by_linear_power(f, alpha, m)


@pytest.mark.parametrize("field", [QQ, GF(7), GF(10007)], ids=["QQ", "F7", "F10007"])
def test_divisible_by_linear_power_is_the_divisibility_kernel(field):
    # alpha^m | f iff f is in the kernel of the dense divisibility matrix,
    # on alpha^j * g for j = 0 .. m + 1 and on random f; over Q the
    # coefficients of alpha have denominators up to 4
    rng = random.Random(25)
    seen = {True: 0, False: 0}
    for m in (1, 2, 3):
        for _ in range(8):
            ell = rng.randint(2, 4)
            coeffs = [_random_coeff(rng, field) for _ in range(ell)]
            if not any(coeffs):
                coeffs[rng.randrange(ell)] = field.one
            alpha = LinearForm(field, coeffs)
            a = alpha.as_poly()
            for j in range(m + 2):
                e = rng.randint(0, 3)
                g = _random_poly(rng, field, ell, [e], 5)
                for f in (a**j * g, _random_poly(rng, field, ell, [j + e], 6)):
                    M = _divisibility_matrix(j + e, alpha, m)
                    v = [f.coeff(mono) for mono in monomial_basis(ell, j + e)]
                    in_kernel = not any(M.mul_vec(v))
                    assert divisible_by_linear_power(f, alpha, m) == in_kernel, (m, j, f)
                    seen[in_kernel] += 1
    assert seen[True] and seen[False]


def test_poly_det_and_product():
    x = Poly.variable(QQ, 2, 0)
    y = Poly.variable(QQ, 2, 1)
    det = poly_det([[x, y], [y, x]])
    assert det == x * x - y * y
    assert product([x, y]) == x * y
