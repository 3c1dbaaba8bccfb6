import random
from math import comb

import numpy as np
import pytest

from arrlog.arrangement import validate
from arrlog.fields import GF, QQ
from arrlog.library import boolean, braid, generic, grr3, nine4d, ziegler22
from arrlog.linalg import Matrix, rank
from arrlog.modular import PRIMES, ReconstructionFailed, kernel_qq_candidates
from arrlog.poly import LinearForm, Poly
from arrlog.solver import (
    AmbientEngine,
    CoeffVector,
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


def _nine4d_cut_with_hints():
    from arrlog.arrangement import restrict
    from arrlog.maps import restrict_form

    N = nine4d()
    B = N.add_hyperplane(LinearForm(QQ, [1, 3, 5, 7]))
    res = restrict(B, B.n - 1)
    gens = minimal_generators(N, "O")
    return res.restricted, [restrict_form(cv, N, res=res, checked=True) for cv in gens.representatives]


def test_hints_select_the_ambient_engine():
    # the nine4d cut is simple and essential, so without hints the auto
    # engine is the relative one, which cannot read hints
    cut, hints = _nine4d_cut_with_hints()
    assert isinstance(pick_engine(cut, "O", 1), RelativeEngine)
    hinted = minimal_generators(cut, "O", hints=hints)
    assert isinstance(hinted.engine, AmbientEngine)
    plain = minimal_generators(cut, "O")
    assert hinted.degrees == plain.degrees
    assert hinted.dims == plain.dims
    for cv in hinted.representatives:
        assert is_logarithmic(cut, cv)


def test_hints_with_the_relative_engine_or_a_base_are_rejected():
    from arrlog.solver import SolverError, boolean_like_base

    cut, hints = _nine4d_cut_with_hints()
    for kw in ({"engine": "relative"}, {"base": boolean_like_base(cut)}):
        with pytest.raises(SolverError, match="hints need the ambient engine"):
            minimal_generators(cut, "O", hints=hints, **kw)


@pytest.mark.parametrize("field", [GF(1009), QQ], ids=["F1009", "QQ"])
def test_piece_solver_dimension_matches_graded_dimension(field):
    A = generic(5, 3, seed=2, field=field)
    for engine in ("ambient", "relative"):
        for kind, degrees in (("D", range(-1, 5)), ("O", range(-6, 1))):
            eng = pick_engine(A, kind, 1, engine)
            for d in degrees:
                assert eng.dimension(d) == graded_dimension(A, kind, 1, d, engine=engine), (engine, kind, d)
            # remembered: asking again builds no constraint matrix
            eng.build_mod = None
            assert [eng.dimension(d) for d in degrees] == [
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
    built = []

    def build(p):
        built.append(p)
        return rows % p

    first = kernel_qq_candidates(build, 3, lambda *cand: cand)
    vectors, primes, exact = first[0]
    assert (primes, exact) == (first[3], False)
    seen = []

    def reject_first(vectors, primes, exact):
        seen.append(primes)
        return vectors if len(seen) > 1 else None

    assert _certified_kernel(build, 3, QQ, lambda *cand: cand) == first[0]
    built.clear()
    assert _certified_kernel(build, 3, QQ, reject_first) == vectors
    assert seen[0] == first[3]
    assert len(seen[1]) == len(first[3]) + 1
    # the search resumes: the rejected candidate's primes are built once
    assert len(built) == len(first[3]) + 1
    with pytest.raises(ReconstructionFailed):
        _certified_kernel(build, 3, QQ, lambda *cand: None)


def test_certified_kernel_qq_zero_mod_first_prime():
    # [P, 2P, 3P] vanishes mod P = PRIMES[0]: the identity candidate of the
    # zero matrix fails, and the next primes give the rational kernel
    P = PRIMES[0]
    rows = [[P, 2 * P, 3 * P]]

    def accept(vectors, primes, exact):
        if all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows for v in vectors):
            return vectors
        return None

    vectors = _certified_kernel(lambda p: np.array(rows, dtype=np.int64) % p, 3, QQ, accept)
    assert len(vectors) == 2
    assert rank(Matrix(QQ, vectors)) == 2


def test_rejected_lift_resumes_from_its_primes(monkeypatch):
    # a wrong lift that reconstructs (degrees 3 and 4 on the ambient engine)
    # is answered by one more prime, not by a lift from the first prime again
    A = generic(5, 3, seed=3, field=QQ).delete(3)
    build_mod = AmbientEngine.build_mod
    builds = [0]

    def counting_build(self, d, p):
        builds[0] += 1
        return build_mod(self, d, p)

    monkeypatch.setattr(AmbientEngine, "build_mod", counting_build)
    for d, dim, most in ((3, 14, 13), (4, 25, 20)):
        builds[0] = 0
        assert graded_dimension(A, "D", 1, d, engine="ambient") == dim
        assert builds[0] <= most, (d, builds[0])


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


class _Eval(np.ndarray):
    """An eval matrix of the generators found so far."""


class _Constraint(np.ndarray):
    """A constraint matrix of one engine at one degree."""


def test_fp_degree_step_eliminates_eval_matrix_once(monkeypatch):
    # over F_p the eval rank at the field's prime is exact: a degree step
    # ranks its eval matrix and takes no kernel of it; and one reduced
    # elimination of its constraint matrix gives the rank and, at a
    # generator degree, the kernel the new generators are picked from
    from arrlog import solver

    eval_matrix_mod, rank_mod, kernel_mod = solver.eval_matrix_mod, solver.rank_mod, solver.kernel_mod
    ranks, kernels = [0], [0]
    built, eliminated = {}, {}

    def counting_build(build_mod):
        def build(self, d, p):
            M = build_mod(self, d, p).view(_Constraint)
            M.key = (self, d)
            built[M.key] = built.get(M.key, 0) + 1
            return M

        return build

    def count_constraint(M):
        if isinstance(M, _Constraint):
            eliminated[M.key] = eliminated.get(M.key, 0) + 1

    def counting_rank(M, p):
        ranks[0] += isinstance(M, _Eval)
        count_constraint(M)
        return rank_mod(M, p)

    def counting_kernel(M, p):
        kernels[0] += isinstance(M, _Eval)
        count_constraint(M)
        return kernel_mod(M, p)

    for cls in (AmbientEngine, RelativeEngine):
        monkeypatch.setattr(cls, "build_mod", counting_build(cls.build_mod))
    monkeypatch.setattr(solver, "eval_matrix_mod", lambda *args: eval_matrix_mod(*args).view(_Eval))
    monkeypatch.setattr(solver, "rank_mod", counting_rank)
    monkeypatch.setattr(solver, "kernel_mod", counting_kernel)
    F = GF(1009)
    generator_degrees = 0
    for A in (boolean(3, field=F).add_hyperplane(LinearForm(F, [1, 2, 3])), generic(5, 3, seed=1, field=F)):
        for kind in ("D", "O"):
            generator_degrees += len(set(minimal_generators(A, kind).degrees))
    assert ranks[0] > 0
    assert kernels[0] == 0
    assert generator_degrees > 0
    assert set(built.values()) == {1}
    assert eliminated.keys() == built.keys() and set(eliminated.values()) == {1}


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

    degree_step, rref_mod, eval_matrix_mod = solver._degree_step, modular.rref_mod, solver.eval_matrix_mod
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

    for cls, build_mod in originals.items():
        monkeypatch.setattr(cls, "build_mod", tagging(build_mod))
    monkeypatch.setattr(solver, "_degree_step", spy_step)
    monkeypatch.setattr(solver, "eval_matrix_mod", lambda *args: tagged(eval_matrix_mod(*args), "eval"))
    monkeypatch.setattr(modular, "rref_mod", spy_rref)
    monkeypatch.setattr(solver, "rref_mod", spy_rref)

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
