import random
from fractions import Fraction
from math import comb, gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrlog.arrangement import Arrangement, validate
from arrlog.fields import GF, QQ
from arrlog.library import boolean, braid, generic, grr3, nine4d, ziegler22
from arrlog.linalg import Matrix, rank
from arrlog.modular import PRIMES, ReconstructionFailed, kernel_mod, kernel_qq_candidates
from arrlog.poly import LinearForm, Poly
from arrlog.solver import (
    AmbientEngine,
    CoeffVector,
    RelativeEngine,
    boolean_like_base,
    condition_polys,
    condition_terms,
    free_base_from_saito,
    free_piece_dimension,
    graded_basis,
    graded_dimension,
    is_logarithmic,
    membership_failures,
    minimal_generators,
    pick_engine,
    saito_check,
    subsets,
    sweep_minimal_generators,
)
from test_oracles import coxeter


def test_empty_arrangement_forms():
    A = validate(QQ, [], ell=3)
    B = graded_basis(A, "O", 1, 0)
    assert len(B) == 3  # the coordinate differentials


def test_boolean_derivations_dim():
    A = boolean(3)
    assert graded_dimension(A, "D", 1, 0) == 0
    assert graded_dimension(A, "D", 1, 1) == 3  # x_i d/dx_i
    B = graded_basis(A, "D", 1, 1)
    for cv in B:
        assert is_logarithmic(A, cv)


def test_graded_basis_membership_fp():
    A = grr3(3, GF(7))
    B = graded_basis(A, "O", 1, -4)
    assert len(B) >= 1
    for cv in B:
        assert is_logarithmic(A, cv)
    # every single-hyperplane deletion drops the degree -4 piece to zero
    for i in range(A.n):
        assert graded_dimension(A.delete(i), "O", 1, -4) == 0


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(4, 6),
    p=st.sampled_from([101, 1009]),
    kind=st.sampled_from(["D", "O"]),
)
def test_engines_agree_random_fp(seed, n, p, kind):
    # the unit base and the boolean-like base are two sets of coordinates
    # on one module: same dimensions, same generator degrees
    A = generic(n, 3, seed=seed, field=GF(p))
    amb = AmbientEngine(A, kind)
    rel = RelativeEngine(A, kind)
    for d in range(-2, 4) if kind == "D" else range(-n - 1, -n + 4):
        assert amb.dimension(d) == rel.dimension(d), (kind, d)
    degrees = [minimal_generators(A, kind, engine=engine).degrees for engine in ("ambient", "relative")]
    assert degrees[0] == degrees[1]


def test_engines_agree_qq():
    A = nine4d()
    for d in (-2, -1):
        da = len(sweep_minimal_generators(AmbientEngine(A, "O"), (d, d)).elements)
        dr = len(sweep_minimal_generators(RelativeEngine(A, "O"), (d, d)).elements)
        assert da == dr


def test_minimal_generators_boolean():
    A = boolean(3)
    gs = minimal_generators(A, "D")
    assert gs.degree_multiset() == [1, 1, 1]
    go = minimal_generators(A, "O")
    assert go.degree_multiset() == [-1, -1, -1]


def test_saito_boolean():
    res = saito_check(boolean(3))
    assert res.free and res.exponents == [1, 1, 1]
    res4 = saito_check(boolean(4))
    assert res4.free and res4.exponents == [1, 1, 1, 1]


def test_saito_braid_essential():
    A, _ = braid(4).essentialize()
    res = saito_check(A)
    assert res.free and res.exponents == [1, 2, 3]


def test_saito_grr3():
    for p in (7, 13):
        A = grr3(3, GF(p))
        res = saito_check(A)
        assert res.free and res.exponents == [1, 4, 4]
    A = grr3(4, GF(13))
    res = saito_check(A)
    assert res.free and res.exponents == [1, 5, 6]


def test_saito_consistency_hilbert():
    A = grr3(3, GF(7))
    res = saito_check(A)
    assert res.free
    for d in range(0, 7):
        assert graded_dimension(A, "D", 1, d) == free_piece_dimension(3, res.exponents, d)
    assert sum(res.exponents) == A.n


def test_generic_not_free():
    A = generic(5, 3, seed=1, field=GF(101))
    res = saito_check(A)
    assert not res.free


def test_free_dims_match_omega_side():
    # free with exponents (1,4,4): omega generators in degrees -1,-4,-4
    A = grr3(3, GF(7))
    gs = minimal_generators(A, "O")
    assert gs.degree_multiset() == [-4, -4, -1]
    for d in range(-6, 1):
        assert gs.dims[d] == free_piece_dimension(3, [-1, -4, -4], d)


def test_membership_failures_reports():
    A = boolean(2)
    from arrlog.poly import Poly
    from arrlog.solver import CoeffVector

    # d/dx_0 is not logarithmic for the boolean arrangement
    cv = CoeffVector("D", 1, 0, (Poly.const(QQ, 2, 1), Poly.zero(QQ, 2)))
    assert membership_failures(A, cv) == [0]


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "F7"])
def test_condition_polys_apply_the_shared_condition_terms(field):
    # the exact membership check and the constraint assembly read the same
    # conditions; forms with zero coefficients give empty conditions, which
    # the assembly keeps as zero rows and the membership check drops
    rng = random.Random(5)
    ell = 4
    empty = 0
    for coeffs in ([0, 2, -1, 0], [0, 0, 0, 3], [1, 0, 2, 0], [0, 1, 0, 1], [3, -1, 2, 5]):
        alpha = LinearForm(field, coeffs)
        for kind in ("D", "O"):
            for order in range(ell + 1):
                nums = tuple(
                    Poly.from_vector(field, ell, 2, [rng.randint(-3, 3) for _ in range(10)])
                    for _ in subsets(ell, order)
                )
                conds = condition_terms(kind, order, alpha)
                if kind == "D":
                    assert len(conds) == (comb(ell, order - 1) if order else 0)
                else:
                    assert len(conds) == (ell - 1 if order == 1 else comb(ell, order + 1))
                want = []
                for terms in conds:
                    assert all(c for _, c in terms)
                    empty += not terms
                    if terms:
                        P = Poly.zero(field, ell)
                        for b, c in terms:
                            P = P + nums[b].scale(c)
                        want.append(P)
                assert condition_polys(CoeffVector(kind, order, 2, nums), alpha) == want
    assert empty


def test_order_zero_derivations_have_no_conditions():
    # Lambda^0 Der = S: every polynomial is a member, over Q as well
    assert condition_terms("D", 0, LinearForm(QQ, [1, 2, 0])) == []
    assert len(graded_basis(boolean(3), "D", 0, 2)) == 6


def test_oversized_prime_is_a_typed_error():
    # word-sized elimination needs p < 2**28; a larger prime must raise,
    # not return an empty generator set or trip an assertion
    from arrlog.arrangement import ArrangementError
    from arrlog.modular import ModulusTooLarge

    big = GF(2**61 - 1)
    assert issubclass(ModulusTooLarge, ArrangementError)
    with pytest.raises(ModulusTooLarge):
        minimal_generators(nine4d(big), "O")
    with pytest.raises(ModulusTooLarge):
        saito_check(ziegler22(big))
    assert minimal_generators(nine4d(GF(268435399)), "O").count_by_degree() == {-1: 1, -2: 6}


@pytest.mark.parametrize(
    "field, engine",
    [(QQ, "ambient"), (GF(1009), "ambient"), (QQ, "relative"), (GF(1009), "relative")],
    ids=["QQ", "F1009", "QQ-relative", "F1009-relative"],
)
@pytest.mark.parametrize("source", ["boolean4", "generic5"])
def test_hints_keep_generator_degrees_and_dims(field, engine, source):
    # the restrictions of a source's generators, as hints for the sweep of
    # the cut, change which representatives are found but not the module
    from arrlog.arrangement import restrict
    from arrlog.maps import restrict_form

    if source == "boolean4":
        A1, h = boolean(4, field=field), [865, 395, 777, 912]
    else:
        A1, h = generic(5, 3, seed=1, field=field), [865, 395, 777]
    A = A1.add_hyperplane(LinearForm(field, [field.of(c) for c in h]))
    res = restrict(A, A.n - 1)
    gens = minimal_generators(A1, "O")
    hints = [restrict_form(cv, A1, res=res, checked=True) for cv in gens.representatives]
    hinted = minimal_generators(res.restricted, "O", engine=engine, hints=hints)
    plain = minimal_generators(res.restricted, "O", engine=engine)
    assert hinted.degrees == plain.degrees
    assert hinted.dims == plain.dims
    for cv in hinted.representatives:
        assert is_logarithmic(res.restricted, cv)


def _nine4d_cut_with_hints():
    from arrlog.arrangement import restrict
    from arrlog.maps import restrict_form

    N = nine4d()
    B = N.add_hyperplane(LinearForm(QQ, [1, 3, 5, 7]))
    res = restrict(B, B.n - 1)
    gens = minimal_generators(N, "O")
    return res.restricted, [restrict_form(cv, N, res=res, checked=True) for cv in gens.representatives]


def test_hints_ride_the_engine_that_pick_engine_gives():
    # the nine4d cut is simple and essential, so its auto engine is the
    # relative one, with hints or without
    cut, hints = _nine4d_cut_with_hints()
    assert isinstance(pick_engine(cut, "O", 1), RelativeEngine)
    hinted = minimal_generators(cut, "O", hints=hints)
    assert isinstance(hinted.engine, RelativeEngine)
    plain = minimal_generators(cut, "O")
    assert hinted.degrees == plain.degrees
    assert hinted.dims == plain.dims
    for cv in hinted.representatives:
        assert is_logarithmic(cut, cv)


def test_hints_with_the_relative_engine_or_a_base_are_accepted():
    cut, hints = _nine4d_cut_with_hints()
    plain = minimal_generators(cut, "O")
    for kw in ({"engine": "relative"}, {"base": boolean_like_base(cut)}):
        hinted = minimal_generators(cut, "O", hints=hints, **kw)
        assert hinted.degrees == plain.degrees
        assert hinted.dims == plain.dims


def test_hinted_step_needs_the_certified_eval_rank_mod_p(monkeypatch):
    # hints complete the eval image through `_completing_columns`: the
    # pivots of [E | hints] inside E must number the certified eval rank,
    # so a prime where E falls short of it (asked for here as rank_eval + 1
    # with n0 + 1) gives no generators, and the step falls back to the
    # kernel instead of reporting a dimension of n0 + 1
    from arrlog import solver

    completing, try_hints = solver._completing_columns, solver._try_hinted_generators
    hinted, inside = [], []

    def spy_completing(E, C, p, rank_eval, upper):
        picked = completing(E, C, p, rank_eval, upper)
        if inside:
            hinted.append((E, C, p, rank_eval, upper, picked))
        return picked

    def spy_hints(*args):
        inside.append(True)
        try:
            return try_hints(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(solver, "_completing_columns", spy_completing)
    monkeypatch.setattr(solver, "_try_hinted_generators", spy_hints)
    cut, hints = _nine4d_cut_with_hints()
    assert isinstance(minimal_generators(cut, "O", hints=hints).engine, RelativeEngine)
    steps = [step for step in hinted if step[-1]]
    assert steps
    for E, C, p, rank_eval, upper, picked in steps:
        assert len(picked) == upper - rank_eval
        assert completing(E, C, p, rank_eval + 1, upper + 1) is None


def test_a_hint_that_is_not_a_member_is_rejected():
    # dy / (xyz) is not logarithmic on boolean(3): Q d(omega) still has
    # poles along x = 0 and z = 0
    from arrlog.solver import SolverError

    A = boolean(3)
    zero, one = Poly.zero(QQ, 3), Poly.const(QQ, 3, 1)
    hint = CoeffVector("O", 1, -3, (zero, one, zero))
    assert membership_failures(A, hint)
    with pytest.raises(SolverError, match="not a member"):
        minimal_generators(A, "O", hints=[hint])


@pytest.mark.parametrize("field", [QQ, GF(1009)], ids=["QQ", "F1009"])
@pytest.mark.parametrize("kind", ["D", "O"])
def test_element_from_cv_on_the_unit_base_is_the_numerators(field, kind):
    # the unit base is its own dual and Q(base) = 1, so every order reads
    # a member's numerators as its coordinates
    A = generic(4, 3, seed=1, field=field)
    for order in range(A.ell + 1):
        gens = minimal_generators(A, kind, order, engine="ambient")
        assert gens.degrees
        for cv, el in zip(gens.representatives, gens.elements):
            assert gens.engine.element_from_cv(cv) == tuple(el) == cv.numerators


@pytest.mark.parametrize("field", [QQ, GF(1009)], ids=["QQ", "F1009"])
@pytest.mark.parametrize("kind", ["D", "O"])
@pytest.mark.parametrize("name, base", [("braid5", "boolean-like"), ("braid5", "saito"), ("nine4d", "boolean-like")])
def test_element_from_cv_round_trips_over_a_free_base(name, base, kind, field):
    # <F, dual_j> / Q(base) reads a member's coordinates over the base:
    # the generators' own elements, and their numerators back again
    A = braid(5, field).essentialize()[0] if name == "braid5" else nine4d(field)
    fb = free_base_from_saito(saito_check(A)) if base == "saito" else boolean_like_base(A)
    gens = minimal_generators(A, kind, base=fb)
    eng = gens.engine
    for cv, el in zip(gens.representatives, gens.elements):
        assert eng.element_from_cv(cv) == tuple(el)
        assert eng.to_coeffvector(eng.element_from_cv(cv), cv.degree) == cv


def test_a_hint_outside_the_base_module_leaves_a_remainder():
    # dy / Q on the nine4d cut pairs with the boolean-like base's
    # derivations to polynomials of degree 1, which Q(base), of degree 3,
    # does not divide
    from arrlog.solver import SolverError

    cut, _ = _nine4d_cut_with_hints()
    zero, one = Poly.zero(QQ, 3), Poly.const(QQ, 3, 1)
    hint = CoeffVector("O", 1, -cut.deg_Q(), (zero, one, zero))
    with pytest.raises(SolverError, match="not a member"):
        RelativeEngine(cut, "O").element_from_cv(hint)
    with pytest.raises(SolverError, match="not a member"):
        minimal_generators(cut, "O", hints=[hint])


def test_a_hint_that_fails_only_on_the_complement_is_rejected():
    # a derivation of the boolean-like base reads as a unit coordinate
    # vector, with no remainder, and is not tangent to the other
    # hyperplanes of the cut
    from arrlog.solver import SolverError

    cut, _ = _nine4d_cut_with_hints()
    eng = RelativeEngine(cut, "D")
    hint = boolean_like_base(cut).d_basis[0]
    el = eng.element_from_cv(hint)
    assert [g.is_zero() for g in el] == [False, True, True]
    assert membership_failures(cut, hint) and not eng.verify(el, hint.degree)
    with pytest.raises(SolverError, match="not a member"):
        minimal_generators(cut, "D", hints=[hint])


def test_a_base_with_the_ambient_engine_is_rejected():
    from arrlog.solver import SolverError, boolean_like_base

    A = nine4d()
    with pytest.raises(SolverError, match="a base needs the relative engine"):
        minimal_generators(A, "O", engine="ambient", base=boolean_like_base(A))


def test_an_unknown_engine_name_is_rejected():
    from arrlog.solver import SolverError

    with pytest.raises(SolverError, match="unknown engine"):
        minimal_generators(boolean(3), "O", engine="amb")


@pytest.mark.parametrize("field", [GF(1009), QQ], ids=["F1009", "QQ"])
def test_piece_solver_dimension_matches_graded_dimension(field):
    A = generic(5, 3, seed=2, field=field)
    for engine in (AmbientEngine, RelativeEngine):
        for kind, degrees in (("D", range(-1, 5)), ("O", range(-6, 1))):
            eng = engine(A, kind)
            dims = [graded_dimension(A, kind, 1, d) for d in degrees]
            assert [eng.dimension(d) for d in degrees] == dims, (engine, kind)
            # remembered: asking again builds no constraint matrix
            eng.build_mod = None
            assert [eng.dimension(d) for d in degrees] == dims


@pytest.mark.parametrize("engine", ["ambient", "relative"])
def test_wrong_early_lift_takes_more_primes(engine):
    # the first lift reconstructs but is wrong at degree 2 on the relative
    # engine (3 primes, 42 bits; 4 primes verify) and at degrees 3 and 4 on
    # the ambient one; verification must ask for more primes, not raise
    A = generic(5, 3, seed=3, field=QQ).delete(3)
    make = AmbientEngine if engine == "ambient" else RelativeEngine
    dims = [make(A, "D").dimension(d) for d in range(7)]
    assert dims == [0, 1, 6, 14, 25, 39, 56]
    for d in (2, 3):
        eng = make(A, "D")
        for el in sweep_minimal_generators(eng, (d, d)).elements:
            assert is_logarithmic(A, eng.to_coeffvector(el, d))


def test_certified_kernel_qq_retry_and_exhaustion():
    rows = np.array([[1, 2, 3], [4, 5, 6]], dtype=np.int64)  # kernel (1, -2, 1)
    built = []

    def build(p):
        built.append(p)
        return rows % p

    first = kernel_qq_candidates(build, 3, lambda vectors: vectors)
    vectors = first[0]
    assert vectors == [[1, -2, 1]]
    seen = []

    def reject_first(vectors):
        seen.append(len(built))  # primes built when the candidate is offered
        return vectors if len(seen) > 1 else None

    built.clear()
    assert kernel_qq_candidates(build, 3, reject_first)[0] == vectors
    # the search resumes with one more prime: the rejected candidate's
    # primes are built once
    assert seen == [len(first[3]), len(first[3]) + 1]
    assert len(built) == len(first[3]) + 1
    with pytest.raises(ReconstructionFailed):
        kernel_qq_candidates(build, 3, lambda vectors: None)


def test_certified_kernel_qq_zero_mod_first_prime():
    # [P, 2P, 3P] vanishes mod P = PRIMES[0]: the identity candidate of the
    # zero matrix fails, and the next primes give the rational kernel
    P = PRIMES[0]
    rows = [[P, 2 * P, 3 * P]]

    def accept(vectors):
        if all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows for v in vectors):
            return vectors
        return None

    vectors = kernel_qq_candidates(lambda p: np.array(rows, dtype=np.int64) % p, 3, accept)[0]
    assert len(vectors) == 2
    assert rank(Matrix(QQ, vectors)) == 2


def test_rejected_lift_resumes_from_its_primes(monkeypatch):
    # a wrong lift that reconstructs (degrees 3 and 4 on the ambient engine)
    # is answered by one more prime, not by a lift from the first prime
    # again; the one-degree sweep's rank at its first prime is one more
    # build than the primes of the lift
    A = generic(5, 3, seed=3, field=QQ).delete(3)
    build_mod = AmbientEngine.build_mod
    builds = [0]

    def counting_build(self, d, p, cols=None):
        builds[0] += 1
        return build_mod(self, d, p, cols)

    monkeypatch.setattr(AmbientEngine, "build_mod", counting_build)
    for d, dim, most in ((3, 14, 14), (4, 25, 21)):
        builds[0] = 0
        assert AmbientEngine(A, "D").dimension(d) == dim
        assert builds[0] <= most, (d, builds[0])


def test_certified_kernel_fp_is_exact_and_taken_once(monkeypatch):
    # over F_p a dimension is the rank at the field's prime: one build and
    # one pivots-only elimination per degree with coordinates, remembered
    from arrlog import modular

    builds, eliminations = [], []
    rref_mod = modular.rref_mod

    def counting_rref(A, p, reduced=True):
        eliminations.append((p, reduced))
        return rref_mod(A, p, reduced)

    for cls in (AmbientEngine, RelativeEngine):
        def counting_build(self, d, p, cols=None, cls=cls, build_mod=cls.build_mod):
            builds.append((cls, p))
            return build_mod(self, d, p, cols)

        monkeypatch.setattr(cls, "build_mod", counting_build)
    monkeypatch.setattr(modular, "rref_mod", counting_rref)
    eng = AmbientEngine(boolean(3, field=GF(7)), "D")
    assert eng.dimension(1) == 3  # x_i d/dx_i
    assert builds == [(AmbientEngine, 7)] and eliminations == [(7, False)]
    assert eng.dimension(1) == 3 and len(builds) == 1
    A = generic(5, 3, seed=2, field=GF(1009))
    for engine in (AmbientEngine, RelativeEngine):
        for kind, degrees in (("D", range(-1, 5)), ("O", range(-6, 1))):
            eng = engine(A, kind)
            for d in degrees:
                del builds[:], eliminations[:]
                eng.dimension(d)
                want = 1 if eng.space.dim(d) else 0
                assert builds == [(engine, 1009)] * want, (engine, kind, d)
                assert eliminations == [(1009, False)] * want, (engine, kind, d)


def _primitive_integer(element):
    coeffs = [c for poly in element for c in poly.terms.values()]
    return all(Fraction(c).denominator == 1 for c in coeffs) and gcd(*(int(c) for c in coeffs)) == 1


@pytest.mark.parametrize("case", ["nine4d-O", "generic-delete-D"])
def test_qq_graded_basis_is_the_one_degree_sweep(case):
    # with nothing below d every kernel vector is a new generator: each
    # engine's one-degree sweep finds verified elements with primitive
    # integer coefficients, as many as the certified dimension
    if case == "nine4d-O":
        A, kind, degrees = nine4d(), "O", (-2, -1)
    else:
        A, kind, degrees = generic(5, 3, seed=3, field=QQ).delete(3), "D", (3,)
    for d in degrees:
        basis = graded_basis(A, kind, 1, d)
        assert len(basis) == graded_dimension(A, kind, 1, d) > 0
        assert all(is_logarithmic(A, cv) for cv in basis)
        for make in (AmbientEngine, RelativeEngine):
            eng = make(A, kind)
            elements = sweep_minimal_generators(eng, (d, d)).elements
            assert len(elements) == len(basis) == eng.dimension(d), (make, d)
            for el in elements:
                assert eng.verify(el, d) and is_logarithmic(A, eng.to_coeffvector(el, d))
                assert _primitive_integer(el), (make, d)


def test_fp_graded_basis_is_the_kernel_in_its_order():
    # over F_p the one-degree sweep keeps every row of the kernel at the
    # field's prime, in kernel_mod's order
    F = GF(1009)
    cases = [
        (generic(5, 3, seed=1, field=F), "O", -1),
        (generic(6, 3, seed=2, field=F), "D", 3),
        (boolean(3, field=F), "D", 1),
        (grr3(3, GF(7)), "O", -4),
        (braid(4, field=F), "D", 2),
    ]
    for A, kind, d in cases:
        eng = pick_engine(A, kind, 1)
        p = A.field.p
        K = kernel_mod(eng.build_mod(d, p), p)
        want = [eng.to_coeffvector(eng.space.element_from_coords(A.field, d, v), d) for v in K.tolist()]
        assert want and graded_basis(A, kind, 1, d) == want, (kind, d)


# each exit of saito_check: its reason and the sweep it reports
SAITO_FIELDS = pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "F101"])


@SAITO_FIELDS
def test_saito_exit_free(field):
    res = saito_check(boolean(3, field=field))
    assert res.free and res.reason == "determinant matches Q"
    assert (res.exponents, res.constant) == ([1, 1, 1], 1)
    # the sweep stops at degree 1; the set covers the window (0, deg Q),
    # with the free module's dimensions past the degrees it swept
    gs = res.generators
    assert gs.degrees == [1, 1, 1] and gs.dims == {0: 0, 1: 3, 2: 9, 3: 18}
    assert gs.degree_bound_used == (0, 3)
    # a bound past the last generator degree exits the same way
    gs = saito_check(boolean(3, field=field), degree_bound=5).generators
    assert gs.degree_bound_used == (0, 5) and gs.dims == {d: free_piece_dimension(3, [1, 1, 1], d) for d in range(6)}


@SAITO_FIELDS
def test_saito_exit_too_many_generators(field):
    res = saito_check(generic(5, 3, seed=1, field=field))
    assert not res.free and res.reason == "more than 3 minimal generators"
    assert res.exponents is None and res.constant is None
    gs = res.generators
    assert gs.degrees == [1, 3, 3, 3, 3] and gs.dims == {0: 0, 1: 1, 2: 3, 3: 10}
    assert gs.degree_bound_used == (0, 3)


@SAITO_FIELDS
def test_saito_exit_not_free_up_to_bound(field):
    A, _ = braid(4, field=field).essentialize()
    res = saito_check(A, degree_bound=2)
    assert not res.free and res.reason == "not free up to bound"
    gs = res.generators
    assert gs.degrees == [1, 2] and gs.dims == {0: 0, 1: 1, 2: 4}
    assert gs.degree_bound_used == (0, 2)


@SAITO_FIELDS
def test_saito_exit_no_saito_basis(field, monkeypatch):
    # no natural input reaches this exit (ell generators of D(A) in the
    # window always give a Saito basis), so the determinant test is made
    # to fail on a free arrangement: the sweep then runs to deg Q
    import arrlog.solver as solver

    monkeypatch.setattr(solver, "_saito_constant", lambda A, cvs: None)
    A, _ = braid(4, field=field).essentialize()
    res = saito_check(A)
    assert not res.free and res.reason == "no Saito basis; arrangement not free"
    assert res.exponents is None and res.constant is None
    gs = res.generators
    assert gs.degrees == [1, 2, 3]
    assert gs.dims == {d: free_piece_dimension(3, [1, 2, 3], d) for d in range(7)}
    assert gs.degree_bound_used == (0, 6)
    assert saito_check(A, degree_bound=4).reason == "not free up to bound"


@pytest.mark.parametrize("m, exponents", [(1, [1]), (3, [3])])
def test_saito_check_of_a_single_line(m, exponents):
    # ell = 1: S/(x^m) is 0 from degree m on, so the constraint rows of
    # those degrees are empty; x^m d/dx is the Saito basis
    res = saito_check(boolean(1).with_multiplicities([m]))
    assert res.free and res.exponents == exponents and res.constant == 1


def oracle_saito_constant(A, cvs, power=1):
    """The determinant of the numerators over S, divided by Q(A, m)^power one form at a time."""
    from arrlog.poly import divide_by_linear, poly_det

    f = poly_det([list(cv.numerators) for cv in cvs])
    if f.is_zero():
        return None
    for alpha, m in zip(A.forms, A.mult):
        for _ in range(m * power):
            f, r = divide_by_linear(f, alpha)
            assert r.is_zero()
    assert f.total_degree() == 0
    return f.coeff((0,) * A.ell)


def _rescaled_ziegler22():
    rng = random.Random(5)
    forms = [LinearForm(QQ, [Fraction(rng.choice((-7, -2, 3, 5)), rng.randint(2, 9)) * c for c in f.coeffs])
             for f in ziegler22().forms]
    rng.shuffle(forms)
    assert any(Fraction(c).denominator > 1 for f in forms for c in f.coeffs)
    return Arrangement(QQ, 4, forms, [1] * len(forms))


@pytest.mark.parametrize(
    "make",
    [
        ziegler22,
        _rescaled_ziegler22,
        lambda: boolean(3).with_multiplicities([2, 1, 3]),
        lambda: grr3(3, GF(13)),
        lambda: coxeter(4, False),
        lambda: coxeter(4, True),
    ],
    ids=["ziegler22", "rescaled-ziegler22", "boolean3-multiplicities", "grr3-F13", "D4", "B4"],
)
def test_saito_constant_matches_the_determinant_division(make):
    from arrlog.solver import _saito_constant

    A = make()
    res = saito_check(A)
    assert res.free
    cvs = res.generators.representatives
    c = _saito_constant(A, cvs)
    assert c == oracle_saito_constant(A, cvs) == res.constant
    assert c and type(c) is type(A.field.one)
    # two equal rows: the determinant is 0, and so is its image
    assert _saito_constant(A, cvs[:-1] + cvs[:1]) is None
    assert oracle_saito_constant(A, cvs[:-1] + cvs[:1]) is None
    # the dual 1-forms F = adj(M)^T / c have det F = Q^(ell-1) / c (the
    # division of the rescaled determinant takes 13 s, so it is left out)
    fb = free_base_from_saito(res)
    forms = [CoeffVector("O", 1, -e, nums) for e, nums in zip(fb.exponents, fb.omega_numerators)]
    assert _saito_constant(A, forms) == A.field.inv(c)
    if make is not _rescaled_ziegler22:
        assert _saito_constant(A, forms) == oracle_saito_constant(A, forms, A.ell - 1)
    assert _saito_constant(A, forms[:-1] + forms[:1]) is None


class _Eval(np.ndarray):
    """An eval matrix of the generators found so far."""


class _Constraint(np.ndarray):
    """A constraint matrix of one engine at one degree."""


def test_eval_row_pivots_allocate_little_beyond_a_sparse_eval_matrix():
    # the row pivots of a large sparse eval matrix come from its entries:
    # its 2730 x 840 dense int64 form (18 MB) is never made.  The leading
    # coordinates of g2 and g3, and of g3 and g4, meet from degree 10 on:
    # the multiples that share one are reduced, and those of g3 and g4 go
    # to zero (a Koszul relation), so the eval rank is below 840
    import tracemalloc

    from arrlog import solver

    ell, a, d, p = 5, 5, 11, PRIMES[0]

    def poly(*terms):
        return Poly(QQ, ell, {tuple(mono): QQ.of(c) for c, mono in terms})

    zero = Poly.zero(QQ, ell)
    gens = [
        (a, (poly((1, (a, 0, 0, 0, 0)), (2, (a - 1, 1, 0, 0, 0))), zero)),
        (a, (poly((3, (a, 0, 0, 0, 0))), poly((1, (0, a, 0, 0, 0)), (5, (1, a - 1, 0, 0, 0))))),
        (a, (zero, poly((1, (0, 0, 0, a, 0)), (7, (0, 0, 1, a - 1, 0))))),
        (a, (zero, poly((1, (0, 0, 0, 0, a)), (11, (0, 0, 1, 0, a - 1))))),
    ]
    space = solver.TwistSpace(ell, (0, 0))
    solver._eval_row_pivots(space, gens, d, p)  # fills the monomial tables
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rows, (_, _, _, (m, n)) = solver._eval_row_pivots(space, gens, d, p)
        extra = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert (m, n) == (2730, 840)
    assert extra < 0.1 * m * n * 8, extra
    E = solver.eval_matrix_mod(space, gens, d, p)
    assert rows == sorted(m - 1 - r for r in solver.rref_mod(E[::-1].T, p, reduced=False)[1])
    assert len(rows) < n


def test_fp_degree_step_eliminates_eval_matrix_once(monkeypatch):
    # over F_p the eval rank at the field's prime is exact: a degree step
    # takes the row pivots of its eval matrix off its entries, once, and
    # no rank or kernel of it; and one reduced elimination of its
    # constraint matrix on the columns off those pivots gives the rank
    # and, at a generator degree, the new generators themselves
    from arrlog import solver

    eval_entries, densify, sparse_pivots_mod = solver._eval_entries, solver._densify, solver.sparse_pivots_mod
    eval_eliminations = {"sparse_pivots_mod": 0, "rank_mod": 0, "kernel_mod": 0}
    eval_builds = [0]
    built, eliminated = {}, {}

    def counting_build(build_mod):
        def build(self, d, p, cols=None):
            M = build_mod(self, d, p, cols).view(_Constraint)
            M.key = (self, d)
            built[M.key] = built.get(M.key, 0) + 1
            return M

        return build

    def counting(name):
        eliminate = getattr(solver, name)

        def spy(M, p, **kwargs):
            if isinstance(M, _Eval):
                eval_eliminations[name] += 1
            elif isinstance(M, _Constraint):
                eliminated[M.key] = eliminated.get(M.key, 0) + 1
            return eliminate(M, p, **kwargs)

        return spy

    def counting_entries(*args):
        eval_builds[0] += 1
        return eval_entries(*args)

    def counting_pivots(*args):
        eval_eliminations["sparse_pivots_mod"] += 1
        return sparse_pivots_mod(*args)

    for cls in (AmbientEngine, RelativeEngine):
        monkeypatch.setattr(cls, "build_mod", counting_build(cls.build_mod))
    # every dense eval matrix is an _Eval
    monkeypatch.setattr(solver, "_densify", lambda *args: densify(*args).view(_Eval))
    monkeypatch.setattr(solver, "_eval_entries", counting_entries)
    for name in ("rank_mod", "kernel_mod"):
        monkeypatch.setattr(solver, name, counting(name))
    monkeypatch.setattr(solver, "sparse_pivots_mod", counting_pivots)
    F = GF(1009)
    generator_degrees = 0
    for A in (boolean(3, field=F).add_hyperplane(LinearForm(F, [1, 2, 3])), generic(5, 3, seed=1, field=F)):
        for kind in ("D", "O"):
            generator_degrees += len(set(minimal_generators(A, kind).degrees))
    # the pivots come from the eval matrix's entries, one pass per build
    assert eval_eliminations["sparse_pivots_mod"] == eval_builds[0] > 0
    assert eval_eliminations["rank_mod"] == eval_eliminations["kernel_mod"] == 0
    assert generator_degrees > 0
    assert set(built.values()) == {1}
    assert eliminated.keys() == built.keys() and set(eliminated.values()) == {1}


def _pick_reference(family, gens, d):
    """The new generators at degree d from the full-width kernel and the [E | K^T] pick.

    This is the rule the kernel off the eval pivots replaces, kept as an
    oracle: the whole kernel mod p in unit-free-column form, of which the
    rows that are pivots of [E | K^T] right of E complete the eval image E
    of the generators below d.  Over Q only the picked rows are lifted and
    verified: their kernel on the pivot columns and the picked free columns.
    """
    from arrlog import solver

    field, space, ncols = family.field, family.space, family.space.dim(d)
    p = solver._eval_prime(gens, solver._primes(field))
    M = family.build_mod(d, p)
    _, pivots = solver.rref_mod(M, p, reduced=False)
    K = kernel_mod(M, p)
    E = solver.eval_matrix_mod(space, gens, d, p)
    _, completing = solver.rref_mod(np.hstack([E, K.T]), p, reduced=False)
    picked = [c - E.shape[1] for c in completing if c >= E.shape[1]]

    def element(v):
        return solver.normalize_element(space.element_from_coords(field, d, v))

    if field != QQ:
        return [element(v) for v in K[picked].tolist()]
    free = np.setdiff1d(np.arange(ncols), pivots)
    cols = np.sort(np.concatenate([pivots, free[picked]])).astype(np.int64)

    def accept(vectors):
        new = []
        for v in vectors:
            coords = [0] * ncols
            for c, x in zip(cols.tolist(), v):
                coords[c] = x
            new.append(element(coords))
        return new if all(family.verify(el, d) for el in new) else None

    return kernel_qq_candidates(lambda q: family.build_mod(d, q, cols), len(cols), accept)[0]


def _generator_steps(monkeypatch):
    """Record (family, generators below, d, new generators) of every degree step with new generators."""
    from arrlog import solver

    degree_step, steps = solver._degree_step, []

    def spy(family, gens, d, ncols, hints_d=()):
        n_d, new = degree_step(family, gens, d, ncols, hints_d)
        if new:
            steps.append((family, list(gens), d, new))
        return n_d, new

    monkeypatch.setattr(solver, "_degree_step", spy)
    return steps


# (arrangement, kind) of each generator sweep the kernel off the eval pivots
# is checked on; ziegler22's D sweep is the Saito sweep, which ends at 9
KERNEL_OFF_PIVOTS_CASES = {
    "ziegler22-D-QQ": (ziegler22, "D"),
    "generic-D-QQ": (lambda: generic(5, 3, seed=1), "D"),
    "generic-O-QQ": (lambda: generic(5, 3, seed=1), "O"),
    "generic-D-F1009": (lambda: generic(5, 3, seed=1, field=GF(1009)), "D"),
    "generic-O-F1009": (lambda: generic(5, 3, seed=1, field=GF(1009)), "O"),
    "nine4d-O-QQ": (nine4d, "O"),
}


@pytest.mark.parametrize("case", sorted(KERNEL_OFF_PIVOTS_CASES))
def test_kernel_off_the_eval_pivots_is_the_pick_of_the_full_kernel(case, monkeypatch):
    # with P the eval matrix's row pivots taken from its last row, the
    # reduced kernel basis off P is the set of rows of the full reduced
    # kernel basis that the [E | K^T] pick keeps: the same generators
    make, kind = KERNEL_OFF_PIVOTS_CASES[case]
    A = make()
    steps = _generator_steps(monkeypatch)
    if case.startswith("ziegler22"):
        assert saito_check(A).exponents == [1, 5, 7, 9]
    else:
        minimal_generators(A, kind)
    assert steps
    for family, gens, d, new in steps:
        assert new == _pick_reference(family, gens, d), (case, d)


def test_a_bad_first_prime_for_the_eval_pivots_gives_the_same_step(monkeypatch):
    # P at the first prime one pivot short of the certified eval rank: the
    # degree step certifies the rank by its kernel, takes P at the next
    # prime where the eval matrix reaches it, and finds the same dimensions
    # and generators
    from arrlog import solver

    A = generic(5, 3, seed=1)
    want = [minimal_generators(A, kind) for kind in ("D", "O")]
    row_pivots, asked = solver._eval_row_pivots, []

    def short_at_the_first_prime(tgt_space, gens, d, p):
        rows, E = row_pivots(tgt_space, gens, d, p)
        asked.append((p, len(rows)))
        return (rows[:-1] if p == PRIMES[0] else rows), E

    monkeypatch.setattr(solver, "_eval_row_pivots", short_at_the_first_prime)
    for kind, gs in zip(("D", "O"), want):
        got = minimal_generators(A, kind)
        assert (got.degrees, got.dims, got.elements) == (gs.degrees, gs.dims, gs.elements), kind
    # the D sweep has generators below its generator degree 3
    assert any(p == PRIMES[1] and n for p, n in asked)


class _Tagged(np.ndarray):
    """A matrix built for one role in a degree step; its transpose keeps the tag."""

    def __array_finalize__(self, obj):
        self.tag = getattr(obj, "tag", None)


def test_qq_degree_step_ranks_constraints_off_the_eval_image(monkeypatch):
    # over Q a degree step takes the row pivots P of its eval matrix mod p0
    # and ranks the constraint matrix only on the columns outside P: its n0
    # is that of the full matrix, a fast-path degree (n0 == |P|) eliminates
    # no full-width constraint matrix, and no step eliminates its eval
    # matrix twice
    from arrlog import modular, solver
    from arrlog.resolution import betti_table

    degree_step, rref_mod, densify = solver._degree_step, modular.rref_mod, solver._densify
    sparse_pivots_mod = solver.sparse_pivots_mod
    originals = {cls: cls.build_mod for cls in (AmbientEngine, RelativeEngine, solver.EvalKernelFamily)}
    steps, current = [], []

    def spy_step(family, gens, d, ncols, hints_d=()):
        eliminated = []
        current.append(eliminated)
        try:
            result = degree_step(family, gens, d, ncols, hints_d)
        finally:
            current.pop()
        steps.append((family, list(gens), d, ncols, result, eliminated))
        return result

    def tagged(M, tag):
        M = M.view(_Tagged)
        M.tag = tag
        return M

    def tagging(build_mod):
        def build(self, d, p, cols=None):
            return tagged(build_mod(self, d, p, cols), "constraint" if cols is None else "columns")

        return build

    def spy_rref(A, p, reduced=True):
        R, pivots = rref_mod(A, p, reduced)
        if current and getattr(A, "tag", None):
            current[-1].append((A.tag, A.shape, len(pivots)))
        return R, pivots

    # the row pivots of an eval matrix are read off its entries
    def spy_pivots(rows, cols, vals, ncols, p):
        pivots = sparse_pivots_mod(rows, cols, vals, ncols, p)
        if current:
            current[-1].append(("eval", None, len(pivots)))
        return pivots

    # rank_mod eliminates a reordered, untagged copy of its argument, so
    # its eliminations are read at the argument
    def spy_rank(A, p):
        rank = modular.rank_mod(A, p)
        if current and getattr(A, "tag", None):
            current[-1].append((A.tag, A.shape, rank))
        return rank

    for cls, build_mod in originals.items():
        monkeypatch.setattr(cls, "build_mod", tagging(build_mod))
    monkeypatch.setattr(solver, "_degree_step", spy_step)
    monkeypatch.setattr(solver, "_densify", lambda *args: tagged(densify(*args), "eval"))
    monkeypatch.setattr(solver, "sparse_pivots_mod", spy_pivots)
    monkeypatch.setattr(modular, "rref_mod", spy_rref)
    monkeypatch.setattr(solver, "rref_mod", spy_rref)
    monkeypatch.setattr(solver, "rank_mod", spy_rank)

    assert saito_check(ziegler22()).exponents == [1, 5, 7, 9]
    for engine in ("ambient", "relative"):
        assert minimal_generators(generic(5, 3, seed=1), "O", engine=engine).degrees == [-1] * 5
    assert betti_table(minimal_generators(generic(5, 3, seed=1), "D")).certified_free_tail
    families, ranked, fast = set(), 0, 0
    for family, gens, d, ncols, (n_d, _), eliminated in steps:
        families.add(type(family))
        eval_ranks = [rank for tag, _, rank in eliminated if tag == "eval"]
        assert len(eval_ranks) <= 1, (type(family), d)
        if family.known_rank(d) is not None:
            continue
        ranked += 1
        tag, shape, rank = next(e for e in eliminated if e[0] != "eval")
        assert tag == "columns"
        p0 = solver._eval_prime(gens, PRIMES)
        full = modular.rank_mod(originals[type(family)](family, d, p0), p0)
        assert rank == full, (type(family), d)  # so n0 = ncols - rank is the full matrix's
        if eval_ranks and n_d == eval_ranks[0]:
            fast += 1
            assert shape[1] == ncols - n_d
            assert all(tag != "constraint" for tag, _, _ in eliminated)
    assert families == {AmbientEngine, RelativeEngine, solver.EvalKernelFamily}
    assert ranked > fast > 0


@pytest.mark.parametrize("cls", [AmbientEngine, RelativeEngine])
@pytest.mark.parametrize("kind, degrees", [("D", (2, 3, 5)), ("O", (-4, -2, 0))])
def test_build_mod_on_columns_is_the_full_build_sliced(cls, kind, degrees):
    rng = np.random.default_rng(11)
    eng = cls(generic(6, 3, seed=2), kind)
    for d in degrees:
        ncols = eng.space.dim(d)
        subsets = (
            np.zeros(0, dtype=np.int64),
            np.arange(ncols),
            np.sort(rng.choice(ncols, ncols // 2, replace=False)),
            np.sort(rng.choice(ncols, 3, replace=False)),
        )
        for p in PRIMES[:2]:
            full = eng.build_mod(d, p)
            assert full.shape[0] > 0 and full.any()
            for cols in subsets:
                assert np.array_equal(eng.build_mod(d, p, cols), full[:, cols]), (d, p, len(cols))
