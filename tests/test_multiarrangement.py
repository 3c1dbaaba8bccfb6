import pytest

from arrlog.checks import duality_dimension_check
from arrlog.fields import GF, QQ
from arrlog.library import boolean, braid, generic, grr3
from arrlog.solver import (
    CoeffVector,
    SolverError,
    boolean_like_base,
    free_base_from_saito,
    graded_dimension,
    is_logarithmic,
    minimal_generators,
    omega_generators_from_free,
    saito_check,
)


def test_multiarrangement_saito():
    # Q(A, m) = x^2 y: derivations x^2 d/dx and y d/dy give exponents (1, 2)
    A = boolean(2).with_multiplicities([2, 1])
    res = saito_check(A)
    assert res.free and res.exponents == [1, 2]
    assert A.deg_Q() == 3


def test_multiarrangement_dimensions():
    A = boolean(2).with_multiplicities([2, 1])
    assert graded_dimension(A, "D", 1, 0) == 0
    assert graded_dimension(A, "D", 1, 1) == 1  # y d/dy only
    assert graded_dimension(A, "D", 1, 2) == 3  # x^2 dx, xy dy, y^2 dy
    # forms: numerator degree d + 3
    assert graded_dimension(A, "O", 1, -2) == 1  # dx / x^2 (x y dx) / Q
    gens = minimal_generators(A, "D")
    assert gens.degree_multiset() == [1, 2]
    for cv in gens.representatives:
        assert is_logarithmic(A, cv)


def test_multiarrangement_duality():
    A = boolean(2).with_multiplicities([2, 1])
    rep = duality_dimension_check(A, (-5, 2))
    assert rep.ok and rep.shift == 3


def test_free_base_from_saito_members():
    A = grr3(3, GF(7))
    sr = saito_check(A)
    fb = free_base_from_saito(sr)
    assert sorted(fb.exponents) == [1, 4, 4]
    for i, e in enumerate(fb.exponents):
        cv = CoeffVector("O", 1, -e, fb.omega_numerators[i])
        assert is_logarithmic(A, cv)


def test_omega_generators_from_free():
    A = grr3(3, GF(7))
    sr = saito_check(A)
    gens = omega_generators_from_free(free_base_from_saito(sr))
    assert gens.degree_multiset() == [-4, -4, -1]
    for cv in gens.representatives:
        assert is_logarithmic(A, cv)
    # dimension table agrees with a direct solve at a few degrees
    for d in (-4, -2, 0):
        assert gens.dims[d] == graded_dimension(A, "O", 1, d)
    # a base on ell of the n hyperplanes generates the forms of its own
    # boolean subarrangement
    sub = omega_generators_from_free(boolean_like_base(A))
    assert sub.arrangement.n == A.ell and sub.degree_multiset() == [-1, -1, -1]
    for cv in sub.representatives:
        assert is_logarithmic(sub.arrangement, cv)


def test_a_free_base_is_found_in_the_arrangement_by_its_forms():
    # boolean(3)'s hyperplanes are three of the essentialized braid(4)'s,
    # at other indices there; the engine finds them by their forms
    B = braid(4).essentialize()[0]
    fb = free_base_from_saito(saito_check(boolean(3)))
    assert fb.arrangement.forms != B.forms[: fb.arrangement.n]
    assert minimal_generators(B, "D", base=fb).degrees == [1, 2, 3]


def test_a_base_hyperplane_missing_from_the_arrangement_is_rejected():
    fb = free_base_from_saito(saito_check(boolean(3)))
    with pytest.raises(SolverError, match="not in the arrangement"):
        minimal_generators(generic(6, 3, seed=1), "O", base=fb)
    # a hyperplane of multiplicity 2 in the base is not one of multiplicity 1
    multi = free_base_from_saito(saito_check(boolean(2).with_multiplicities([2, 1])))
    with pytest.raises(SolverError, match="not in the arrangement"):
        minimal_generators(boolean(2), "D", base=multi)
