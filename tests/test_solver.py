import random
from math import comb

import numpy as np
import pytest

from arrlog.arrangement import validate
from arrlog.fields import GF, QQ
from arrlog.library import boolean, braid, generic, grr3, nine4d, ziegler22
from arrlog.modular import ReconstructionFailed, kernel_qq_candidates
from arrlog.poly import LinearForm, Poly
from arrlog.solver import (
    AmbientEngine,
    CoeffVector,
    ConstraintFamily,
    RelativeEngine,
    _certified_kernel,
    condition_polys,
    condition_terms,
    free_piece_dimension,
    graded_basis,
    graded_dimension,
    is_logarithmic,
    membership_failures,
    minimal_generators,
    pick_engine,
    saito_check,
    subsets,
)


def test_empty_arrangement_forms():
    A = validate(QQ, [], ell=3)
    B = graded_basis(A, "O", 1, 0)
    assert B.dimension == 3  # the coordinate differentials


def test_boolean_derivations_dim():
    A = boolean(3)
    assert graded_dimension(A, "D", 1, 0) == 0
    assert graded_dimension(A, "D", 1, 1) == 3  # x_i d/dx_i
    B = graded_basis(A, "D", 1, 1)
    for cv in B.vectors:
        assert is_logarithmic(A, cv)


def test_graded_basis_membership_fp():
    A = grr3(3, GF(7))
    B = graded_basis(A, "O", 1, -4)
    assert B.dimension >= 1
    for cv in B.vectors:
        assert is_logarithmic(A, cv)
    # every single-hyperplane deletion drops the degree -4 piece to zero
    for i in range(A.n):
        assert graded_dimension(A.delete(i), "O", 1, -4) == 0


def test_engines_agree_random_fp():
    rng = random.Random(17)
    F = GF(1009)
    for trial in range(4):
        n = rng.randint(4, 6)
        A = generic(n, 3, seed=trial, field=F)
        for kind in ("D", "O"):
            amb = AmbientEngine(A, kind)
            rel = RelativeEngine(A, kind)
            for d in range(-2, 4) if kind == "D" else range(-n - 1, -n + 4):
                da = graded_dimension(A, kind, 1, d, engine="ambient")
                dr = graded_dimension(A, kind, 1, d, engine="relative")
                assert da == dr, (kind, d, da, dr)


def test_engines_agree_qq():
    A = nine4d()
    for d in (-2, -1):
        da = graded_basis(A, "O", 1, d, engine="ambient").dimension
        dr = graded_basis(A, "O", 1, d, engine="relative").dimension
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
    assert graded_basis(boolean(3), "D", 0, 2).dimension == 6


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


@pytest.mark.parametrize("field", [QQ, GF(1009)], ids=["QQ", "F1009"])
@pytest.mark.parametrize("source", ["boolean4", "generic5"])
def test_hints_keep_generator_degrees_and_dims(field, source):
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
    hinted = minimal_generators(res.restricted, "O", engine="ambient", hints=hints)
    plain = minimal_generators(res.restricted, "O", engine="ambient")
    assert hinted.degrees == plain.degrees
    assert hinted.dims == plain.dims
    for cv in hinted.representatives:
        assert is_logarithmic(res.restricted, cv)


@pytest.mark.parametrize("field", [GF(1009), QQ], ids=["F1009", "QQ"])
def test_piece_solver_dimension_matches_graded_dimension(field):
    A = generic(5, 3, seed=2, field=field)
    for engine in ("ambient", "relative"):
        for kind, degrees in (("D", range(-1, 5)), ("O", range(-6, 1))):
            family = ConstraintFamily(pick_engine(A, kind, 1, engine), A.field)
            for d in degrees:
                assert family.dimension(d) == graded_dimension(A, kind, 1, d, engine=engine), (engine, kind, d)
            # remembered: asking again builds no constraint matrix
            family.engine.build_mod = None
            assert [family.dimension(d) for d in degrees] == [
                graded_dimension(A, kind, 1, d, engine=engine) for d in degrees
            ]


@pytest.mark.parametrize("engine", ["ambient", "relative"])
def test_wrong_early_lift_takes_more_primes(engine):
    # the first lift reconstructs but is wrong at degree 2 on the relative
    # engine (3 primes, 42 bits; 4 primes verify) and at degrees 3 and 4 on
    # the ambient one; verification must ask for more primes, not raise
    A = generic(5, 3, seed=3, field=QQ).delete(3)
    dims = [graded_dimension(A, "D", 1, d, engine=engine) for d in range(7)]
    assert dims == [0, 1, 6, 14, 25, 39, 56]
    for d in (2, 3):
        for cv in graded_basis(A, "D", 1, d, engine=engine).vectors:
            assert is_logarithmic(A, cv)


def test_certified_kernel_qq_retry_and_exhaustion():
    rows = np.array([[1, 2, 3], [4, 5, 6]], dtype=np.int64)  # kernel (1, -2, 1)

    def build(p):
        return rows % p

    first = kernel_qq_candidates(build, 3)
    seen = []

    def reject_first(vectors, primes, exact):
        seen.append(primes)
        return vectors if len(seen) > 1 else None

    assert _certified_kernel(build, 3, QQ, lambda *cand: cand) == (first[0], first[3], False)
    assert _certified_kernel(build, 3, QQ, reject_first) == first[0]
    assert seen[0] == first[3]
    assert len(seen[1]) == len(first[3]) + 1
    with pytest.raises(ReconstructionFailed):
        _certified_kernel(build, 3, QQ, lambda *cand: None)



def test_certified_kernel_fp_is_exact_and_taken_once():
    rows = np.array([[1, 2, 3], [4, 5, 6]], dtype=np.int64)
    built = []

    def build(p):
        built.append(p)
        return rows % p

    vectors, primes, exact = _certified_kernel(build, 3, GF(7), lambda *cand: cand)
    assert (vectors, primes, exact, built) == ([[1, 5, 1]], (7,), True, [7])  # (1, -2, 1) mod 7


# each exit of saito_check: its reason and the sweep it reports
SAITO_FIELDS = pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "F101"])


@SAITO_FIELDS
def test_saito_exit_free(field):
    res = saito_check(boolean(3, field=field))
    assert res.free and res.reason == "determinant matches Q"
    assert (res.exponents, res.constant) == ([1, 1, 1], 1)
    gs = res.generators
    assert gs.degrees == [1, 1, 1] and gs.dims == {0: 0, 1: 3}
    assert gs.degree_bound_used == (0, 1) and not gs.stopped_early
    # a bound past the last generator degree exits the same way
    assert saito_check(boolean(3, field=field), degree_bound=5).generators.degree_bound_used == (0, 1)


@SAITO_FIELDS
def test_saito_exit_too_many_generators(field):
    res = saito_check(generic(5, 3, seed=1, field=field))
    assert not res.free and res.reason == "more than 3 minimal generators"
    assert res.exponents is None and res.constant is None
    gs = res.generators
    assert gs.degrees == [1, 3, 3, 3, 3] and gs.dims == {0: 0, 1: 1, 2: 3, 3: 10}
    assert gs.degree_bound_used == (0, 3) and gs.stopped_early


@SAITO_FIELDS
def test_saito_exit_not_free_up_to_bound(field):
    A, _ = braid(4, field=field).essentialize()
    res = saito_check(A, degree_bound=2)
    assert not res.free and res.reason == "not free up to bound"
    gs = res.generators
    assert gs.degrees == [1, 2] and gs.dims == {0: 0, 1: 1, 2: 4}
    assert gs.degree_bound_used == (0, 2) and not gs.stopped_early


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
    assert gs.degree_bound_used == (0, 6) and not gs.stopped_early
    assert saito_check(A, degree_bound=4).reason == "not free up to bound"
