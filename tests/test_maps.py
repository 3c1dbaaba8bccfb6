import pytest

from arrlog.arrangement import restrict
from arrlog.fields import GF, QQ
from arrlog.library import boolean, generic, grr3, nine4d, ziegler22
from arrlog.maps import (
    certified_image_rank,
    euler_restrict_der,
    preparation_check,
    restrict_form,
    surjectivity_check,
)
from arrlog.poly import LinearForm, Poly, monomial_basis
from arrlog.solver import (
    CoeffVector,
    NotLogarithmic,
    graded_basis,
    graded_dimension,
    is_logarithmic,
    minimal_generators,
    saito_check,
)


def euler_field(A):
    ell = A.ell
    return CoeffVector(
        "D", 1, 1, tuple(Poly.variable(A.field, ell, i) for i in range(ell))
    )


def test_euler_restricts_to_euler():
    A = boolean(3)
    out = euler_restrict_der(euler_field(A), A, 2)
    assert out.numerators == tuple(Poly.variable(QQ, 2, i) for i in range(2))


def test_euler_restrict_multiples_die():
    # alpha_H * theta restricts to zero on H
    A = boolean(3)
    alpha = A.forms[2].as_poly()
    theta = CoeffVector(
        "D", 1, 2, tuple(alpha * Poly.variable(QQ, 3, i) for i in range(3))
    )
    assert is_logarithmic(A, theta)
    out = euler_restrict_der(theta, A, 2)
    assert out.is_zero()


def test_euler_restrict_direct():
    # x1 d/dx1 on the boolean arrangement restricts to x1 d/dx1 on x3 = 0
    A = boolean(3)
    theta = CoeffVector(
        "D", 1, 1,
        (Poly.variable(QQ, 3, 0), Poly.zero(QQ, 3), Poly.zero(QQ, 3)),
    )
    out = euler_restrict_der(theta, A, 2)
    assert out.numerators[0] == Poly.variable(QQ, 2, 0)
    assert out.numerators[1].is_zero()


def test_euler_restrict_rejects_non_logarithmic():
    A = boolean(3)
    theta = CoeffVector(
        "D", 1, 0, (Poly.const(QQ, 3, 1), Poly.zero(QQ, 3), Poly.zero(QQ, 3))
    )
    with pytest.raises(NotLogarithmic):
        euler_restrict_der(theta, A, 2)


def test_restrict_form_kernel_is_multiple():
    # alpha_H * (logarithmic form on A) restricts to zero; over Q(A') the
    # product has the same numerator tuple with degree shifted by one
    A_prime = boolean(3)
    h = LinearForm(QQ, [1, 1, 1])
    A = A_prime.add_hyperplane(h)
    basis = graded_basis(A, "O", 1, -1)
    assert basis.dimension >= 1
    omega = basis.vectors[0]
    lifted = CoeffVector("O", 1, omega.degree + 1, omega.numerators)
    assert is_logarithmic(A_prime, lifted)
    out = restrict_form(lifted, A_prime, h=h)
    assert out.is_zero()


def test_restrict_form_boolean_direct():
    # dx1/x1 on {x1, x2} in 2 vars restricted to the new line x1 + x2 = 0
    A_prime = boolean(2)
    h = LinearForm(QQ, [1, 1])
    omega = CoeffVector(
        "O", 1, -1, (Poly.variable(QQ, 2, 1), Poly.zero(QQ, 2))
    )  # x2/ (x1 x2) dx1 = dx1/x1
    assert is_logarithmic(A_prime, omega)
    out = restrict_form(omega, A_prime, h=h)
    # the restriction is a 1-form on a line arrangement with denominators
    # from two collapsed points; both numerators land in one variable
    assert not out.is_zero()
    assert out.degree == -1


def test_surjectivity_free_deletion_derivations():
    # deletion free: Euler restriction of derivations is surjective
    A = boolean(3).add_hyperplane(LinearForm(QQ, [1, 2, 3]))
    rep = surjectivity_check(A, A.n - 1, kind="D")
    assert rep.surjective


def test_surjectivity_free_arrangement_forms():
    # A free: form restriction of the deletion is surjective at every H
    A = grr3(3, GF(7))
    for i in (0, 4):
        rep = surjectivity_check(A, i, kind="O")
        assert rep.surjective


def test_surjectivity_nine4d_not_surjective():
    N = nine4d()
    B = N.add_hyperplane(LinearForm(QQ, [1, 3, 5, 7]))
    rep = surjectivity_check(B, B.n - 1, kind="O")
    assert not rep.surjective
    assert rep.witness_degree == -3
    assert rep.target_generator_degrees == [-3, -2, -2, -2, -1]


def test_preparation_check_on_log_basis():
    A = grr3(3, GF(7))
    basis = graded_basis(A, "O", 1, -4)
    for cv in basis.vectors:
        for i in range(A.n):
            assert preparation_check(cv, A, i)


def test_preparation_check_random_reject():
    # a non-logarithmic numerator tuple typically fails
    A = boolean(3)
    bad = CoeffVector(
        "O", 1, -2,
        (Poly.variable(QQ, 3, 1), Poly.zero(QQ, 3), Poly.zero(QQ, 3)),
    )
    assert not preparation_check(bad, A, 0)


# ---------------------------------------------------------------------------
# certified eval ranks against an exact rank over the field
# ---------------------------------------------------------------------------


def _exact_eval_columns(space, gens, d, field):
    """Columns (k, mono) of the eval map at degree d: the coordinates of mono * gen_k."""
    cols = []
    for e, el in gens:
        if d - e < 0:
            continue
        for mono in monomial_basis(space.ell, d - e):
            m = Poly(field, space.ell, {mono: field.one})
            col = []
            for poly, deg in zip(el, space.block_degrees(d)):
                if deg >= 0:
                    terms = (m * poly).terms
                    col += [terms.get(t, field.zero) for t in monomial_basis(space.ell, deg)]
            cols.append(col)
    return cols


def _exact_rank(cols, field):
    import sympy
    from sympy.polys.matrices import DomainMatrix

    if not cols:
        return 0
    if field == QQ:
        K = sympy.QQ
        rows = [[K(c[i].numerator, c[i].denominator) for c in cols] for i in range(len(cols[0]))]
    else:
        K = sympy.GF(field.p)
        rows = [[K(int(c[i])) for c in cols] for i in range(len(cols[0]))]
    return DomainMatrix(rows, (len(rows), len(cols)), K).rank()


@pytest.mark.parametrize("field", [QQ, GF(1009)], ids=["QQ", "F1009"])
@pytest.mark.parametrize("source", ["boolean3-plus-one", "generic5"])
def test_certified_image_rank_is_the_exact_rank(field, source):
    if source == "generic5":
        A = generic(5, 3, seed=1, field=field)
    else:
        A = boolean(3, field=field).add_hyperplane(LinearForm(field, [field.of(c) for c in (1, 2, 3)]))
    gs = minimal_generators(A, "O", engine="ambient")
    gens = list(zip(gs.degrees, gs.elements))
    space = gs.engine.space
    # all generators reach the piece dimension above their degree; without
    # one of them the rank stays below it; below every generator degree
    # the map has no columns
    cases = {"reaches": (gens, 0), "below": (gens[:-1], 0), "no columns": (gens, min(gs.degrees) - 1)}
    for case, (sub, d) in cases.items():
        upper = graded_dimension(A, "O", 1, d, engine="ambient")
        cols = _exact_eval_columns(space, sub, d, field)
        rank = certified_image_rank(space, sub, d, field, upper=upper)
        assert rank == _exact_rank(cols, field), case
        if case == "reaches":
            assert rank == upper
        elif case == "below":
            assert rank < upper
        else:
            assert cols == [] and rank == 0
