import sys
from collections import Counter
from dataclasses import replace
from itertools import combinations

import pytest

from arrlog.arrangement import restrict
from arrlog.checks import euler_exactness_check
from arrlog.fields import GF, QQ
from arrlog.library import boolean, braid, generic, grr3, nine4d, ziegler22
from arrlog.linalg import Matrix, det, inverse
from arrlog.maps import (
    certified_image_rank,
    euler_restrict_der,
    preparation_check,
    restrict_form,
    surjectivity_check,
)
from arrlog.poly import LinearForm, Poly, Pullback, divide_by_linear, monomial_basis, product
from arrlog.solver import (
    AmbientEngine,
    CoeffVector,
    NotLogarithmic,
    free_base_from_saito,
    graded_basis,
    is_logarithmic,
    minimal_generators,
    saito_check,
    subsets,
)
from test_poly import substitute_per_term


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
    assert len(basis) >= 1
    omega = basis[0]
    lifted = CoeffVector("O", 1, omega.degree + 1, omega.numerators)
    assert is_logarithmic(A_prime, lifted)
    out = restrict_form(lifted, A_prime, restrict(A, A.n - 1))
    assert out.is_zero()


def test_restrict_form_boolean_direct():
    # dx1/x1 on {x1, x2} in 2 vars restricted to the new line x1 + x2 = 0
    A_prime = boolean(2)
    h = LinearForm(QQ, [1, 1])
    omega = CoeffVector(
        "O", 1, -1, (Poly.variable(QQ, 2, 1), Poly.zero(QQ, 2))
    )  # x2/ (x1 x2) dx1 = dx1/x1
    assert is_logarithmic(A_prime, omega)
    A = A_prime.add_hyperplane(h)
    out = restrict_form(omega, A_prime, restrict(A, A.n - 1))
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
    assert sorted(rep.target_generators.degrees) == [-3, -2, -2, -2, -1]


@pytest.mark.parametrize("case", ["nine4d-cut", "grr3-3-H0", "grr3-3-H4"])
def test_surjectivity_sweeps_the_target_with_the_images(case):
    # without target generators the target is swept with the images of
    # the source generators as hints; the ledger is that of an unhinted
    # sweep of the target
    if case == "nine4d-cut":
        N = nine4d()
        A, i = N.add_hyperplane(LinearForm(QQ, [1, 3, 5, 7])), N.n
    else:
        A, i = grr3(3, GF(7)), int(case[-1])
    src = minimal_generators(A.delete(i), "O")
    hinted = surjectivity_check(A, i, kind="O", source_generators=src)
    plain = surjectivity_check(
        A, i, kind="O", source_generators=src,
        target_generators=minimal_generators(restrict(A, i).restricted, "O"),
    )
    assert isinstance(hinted.target_generators.engine, AmbientEngine)  # the hints were read
    assert hinted.rows == plain.rows
    assert (hinted.surjective, hinted.witness_degree) == (plain.surjective, plain.witness_degree)
    assert sorted(hinted.target_generators.degrees) == sorted(plain.target_generators.degrees)


def test_unhinted_ziegler22_cut_over_q_matches_the_hinted_sweep():
    # the seed-101 cut of ziegler22: unhinted over Q, its kernel at degree -1
    # needs more than the whole ladder, while the one new generator needs a few
    # primes; the hinted sweep is the one the generic-cut claim makes
    from arrlog.claims import _sample_generic_hyperplane
    from arrlog.lattice import intersection_lattice

    A1 = ziegler22()
    A = A1.add_hyperplane(_sample_generic_hyperplane(A1, 101, intersection_lattice(A1, max_codim=3), A1.ell - 1))
    unhinted = minimal_generators(restrict(A, A.n - 1).restricted, "O", engine="ambient")
    assert sorted(unhinted.degrees) == [-9, -7, -5, -1]
    source = minimal_generators(A1, "O", base=free_base_from_saito(saito_check(A1)))
    hinted = surjectivity_check(A, A.n - 1, kind="O", source_generators=source).target_generators
    assert unhinted.dims == hinted.dims


def test_generic_cut_restricts_each_source_generator_once(monkeypatch):
    # the cut's target sweep and its surjectivity ledger share one set of
    # images, so each source generator goes through the form restriction once
    from arrlog import claims, maps
    from arrlog.report import Report

    calls = []
    original = maps.restrict_form

    def spy(omega, *args, **kwargs):
        calls.append(omega)
        return original(omega, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "arrlog" and getattr(module, "restrict_form", None) is original:
            monkeypatch.setattr(module, "restrict_form", spy)
    rep = Report(command="test", field_spec="F1009")
    claims.generic_cut_analysis(rep, generic(5, 3, seed=1, field=GF(1009)), None, seed=1, with_betti=False)
    source = next(c for c in rep.claims if c.claim_id == "cut:generators").data["source"]
    assert len(calls) == len(source) > 0


def test_generic_cut_checks_each_image_once(monkeypatch):
    # the images of a cut's source generators seed the target's sweep as
    # hints, which checks their membership once; nothing checks them again
    from arrlog import claims, maps, solver
    from arrlog.report import PASS, Report

    images, checked = [], []
    restrict_generators, failures = maps.restrict_generators, solver.membership_failures

    def spy_images(gens, res):
        out = restrict_generators(gens, res)
        images.extend(out)
        return out

    def spy_failures(A, cv, hyperplanes=None):
        checked.append(cv)
        return failures(A, cv, hyperplanes)

    monkeypatch.setattr(maps, "restrict_generators", spy_images)
    for module in (maps, solver):
        monkeypatch.setattr(module, "membership_failures", spy_failures)
    rep = Report(command="test", field_spec="Q")
    claims.claim_generic_cut_bundle(rep, seeds=(1,))
    assert [c.status for c in rep.claims] == [PASS]
    assert len(images) == 4
    for img in images:
        assert sum(cv.kind == img.kind and cv.numerators == img.numerators for cv in checked) == 1


def test_preparation_check_on_log_basis():
    A = grr3(3, GF(7))
    for cv in graded_basis(A, "O", 1, -4):
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
        upper = gs.engine.dimension(d)
        cols = _exact_eval_columns(space, sub, d, field)
        rank = certified_image_rank(space, sub, d, field, upper=upper)
        assert rank == _exact_rank(cols, field), case
        if case == "reaches":
            assert rank == upper
        elif case == "below":
            assert rank < upper
        else:
            assert cols == [] and rank == 0


def test_certified_image_rank_passes_over_a_prime_the_images_do_not_reduce_at():
    # the images have denominator P0 = PRIMES[0]: the first ladder prime
    # does not reduce them, so it joins no group of the kernel search; the
    # two columns are x/P0 and 2x/P0 in the first block, of rank 1
    from fractions import Fraction

    from arrlog.modular import PRIMES

    space = AmbientEngine(boolean(2), "D", 1).space
    x = Poly.variable(QQ, 2, 0)
    P0 = PRIMES[0]
    images = [(1, (x.scale(Fraction(k, P0)), 0 * x)) for k in (1, 2)]
    assert certified_image_rank(space, images, 1, QQ, upper=2) == 1


# ---------------------------------------------------------------------------
# restriction maps against the per-(T, I) formula, every numerator
# substituted on its own by the per-term reference substitution
# ---------------------------------------------------------------------------


def _linear_images(field, rows):
    """x_k -> sum_t rows[k][t] y_t, as polynomials in y."""
    n = len(rows[0])
    return [Poly(field, n, {tuple(int(s == t) for s in range(n)): c for t, c in enumerate(r) if c}) for r in rows]


def _per_TI(cv, res, coefficient):
    """acc_T = sum over I of coefficient(T, I) * (numerator_I restricted to the chart)."""
    field = res.arrangement.field
    images = _linear_images(field, res.embedding.transpose().rows)
    ell = len(images)
    pulled = [substitute_per_term(f, images) for f in cv.numerators]
    out = []
    for T in combinations(range(ell - 1), cv.order):
        acc = Poly.zero(field, ell - 1)
        for I, g in zip(subsets(ell, cv.order), pulled):
            acc = acc + g.scale(coefficient(T, I))
        out.append(acc)
    return out


def euler_restrict_der_per_TI(theta, res):
    lam = res.lift
    return tuple(_per_TI(theta, res, lambda T, I: det(lam.field, [[lam.rows[i][j] for j in T] for i in I])))


def restrict_form_per_TI(omega, res):
    B = res.embedding
    out = []
    for acc in _per_TI(omega, res, lambda T, I: det(B.field, [[B.rows[t][i] for i in I] for t in T])):
        g = acc.scale(B.field.inv(res.kappa))
        for form, zm in zip(res.restricted.forms, res.ziegler_mult):
            for _ in range(zm - 1):
                g, r = divide_by_linear(g, form)
                assert r.is_zero()
        out.append(g)
    return tuple(out)


def preparation_check_per_term(omega, A, i):
    """`preparation_check` with each numerator and trace form substituted on its own."""
    field = A.field
    k = A.forms[i].pivot()
    rows = [list(A.forms[i].coeffs)] + [[int(s == t) for s in range(A.ell)] for t in range(A.ell) if t != k]
    Tinv = inverse(Matrix(field, rows))
    images = _linear_images(field, Tinv.rows)
    G1 = Poly.zero(field, A.ell)
    for kk, num in enumerate(omega.numerators):
        G1 = G1 + substitute_per_term(num, images).scale(Tinv.rows[kk][0])
    g = Poly(field, A.ell, {m: c for m, c in G1.terms.items() if m[0] == 0})
    res = restrict(A, i)
    for cls in range(res.restricted.n):
        rep = next(j for j in range(A.n) if j != i and res.image_info[j][0] == cls)
        bar = substitute_per_term(A.forms[rep].as_poly(), images)
        coeffs = [field.zero] * A.ell
        for m, c in bar.terms.items():
            if m[0] == 0:
                coeffs[m.index(1)] = c
        g, r = divide_by_linear(g, LinearForm(field, coeffs))
        if not r.is_zero():
            return False
    return True


def _dlog(A, j):
    """d(alpha_j) / alpha_j as a logarithmic 1-form on the simple arrangement A."""
    rest = product([f.as_poly() for t, f in enumerate(A.forms) if t != j])
    return CoeffVector("O", 1, -1, tuple(rest.scale(c) for c in A.forms[j].coeffs))


@pytest.fixture(scope="module", params=["braid4", "ziegler22"])
def restriction_inputs(request):
    """(A, D(A) elements, Omega(A) elements, i -> Omega(A - H_i) elements)."""
    if request.param == "braid4":
        A = braid(4)
        der = minimal_generators(A, "D").representatives + minimal_generators(A, "D", 2).representatives
        forms = minimal_generators(A, "O").representatives

        def deletion(i):
            A_del = A.delete(i)
            return minimal_generators(A_del, "O").representatives + minimal_generators(A_del, "O", 2).representatives

    else:
        A = ziegler22()
        saito = saito_check(A)
        der = saito.generators.representatives
        fb = free_base_from_saito(saito)
        forms = [CoeffVector("O", 1, -e, nums) for e, nums in zip(fb.exponents, fb.omega_numerators)]

        def deletion(i):
            A_del = A.delete(i)
            return [_dlog(A_del, j % A_del.n) for j in (i, i + 5)]

    return A, der, forms, deletion


def test_euler_restrict_der_is_the_per_TI_formula(restriction_inputs):
    A, der, _, _ = restriction_inputs
    nonzero = 0
    for i in range(A.n):
        res = restrict(A, i)
        for theta in der:
            got = euler_restrict_der(theta, A, i, res, checked=True)
            assert got.numerators == euler_restrict_der_per_TI(theta, res), (i, theta.order, theta.degree)
            nonzero += not got.is_zero()
    assert nonzero


def test_restrict_form_is_the_per_TI_formula(restriction_inputs):
    A, _, _, deletion = restriction_inputs
    nonzero = 0
    for i in range(A.n):
        res = restrict(A, i)
        A_del = A.delete(i)
        for omega in deletion(i):
            got = restrict_form(omega, A_del, res=res, checked=True)
            assert got.numerators == restrict_form_per_TI(omega, res), (i, omega.order, omega.degree)
            nonzero += not got.is_zero()
    assert nonzero


def _perturbed(omega):
    """omega with x_0^e added to its first numerator: not logarithmic in general."""
    num = omega.numerators
    e = omega.numerator_degree()
    x0e = Poly(num[0].field, num[0].ell, {(e,) + (0,) * (num[0].ell - 1): num[0].field.one})
    return CoeffVector("O", 1, omega.degree, (num[0] + x0e,) + num[1:])


def test_preparation_check_is_the_per_term_check(restriction_inputs):
    # the log forms pass on every hyperplane; perturbed ones fail on some
    A, _, forms, _ = restriction_inputs
    verdicts = Counter()
    for i in range(A.n):
        for omega in forms + [_perturbed(w) for w in forms[:2]]:
            got = preparation_check(omega, A, i)
            assert got == preparation_check_per_term(omega, A, i), i
            verdicts[got] += 1
    assert verdicts[True] >= len(forms) * A.n and verdicts[False]


def test_one_restriction_builds_each_monomial_image_once(monkeypatch):
    # every generator of a hyperplane's ledger goes through one Restriction,
    # whose pullback builds the image of each monomial at most once
    built = Counter()
    build = Pullback._build

    def counting(self, m):
        built[id(self), m] += 1
        return build(self, m)

    monkeypatch.setattr(Pullback, "_build", counting)
    A = braid(4)
    res = restrict(A, 2)
    for theta in minimal_generators(A, "D").representatives:
        euler_restrict_der(theta, A, 2, res, checked=True)
    A_del = A.delete(2)
    for omega in minimal_generators(A_del, "O").representatives:
        restrict_form(omega, A_del, res=res, checked=True)
    assert built and max(built.values()) == 1
    assert {pull for pull, _ in built} == {id(res.pullback)}
    assert res == replace(res)  # the cached pullback takes no part in equality
    built.clear()
    euler_exactness_check(generic(5, 3, seed=3, field=GF(1009)), 1, "O")
    assert built and max(built.values()) == 1
