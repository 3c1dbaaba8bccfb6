import hashlib
import random
from fractions import Fraction
from itertools import combinations

import pytest

from arrlog.arrangement import (
    ArrangementError,
    DuplicateHyperplane,
    ZeroForm,
    format_arrangement,
    parse_arrangement,
    validate,
)
from arrlog.fields import GF, QQ
from arrlog.lattice import (
    InLattice,
    characteristic_polynomial,
    intersection_lattice,
    is_k_generic,
)
from arrlog.library import FieldUnsupported, boolean, braid, generic, grr3, nine4d, ziegler22
from arrlog.linalg import Matrix, rank
from arrlog.poly import LinearForm


def test_validate_boolean():
    A = boolean(3)
    assert A.n == 3 and A.is_essential()


def test_library_sizes_one_and_zero():
    # braid(1) has no hyperplanes but still its one variable
    A = braid(1)
    assert (A.n, A.ell, A.essential_rank) == (0, 1, 0)
    assert (boolean(1).n, boolean(1).ell) == (1, 1)
    for make, name in ((boolean, "ell"), (braid, "n")):
        with pytest.raises(ArrangementError, match=f"{make.__name__} needs {name} >= 1"):
            make(0)


def test_validate_duplicate():
    with pytest.raises(DuplicateHyperplane):
        validate(QQ, [[1, 0], [2, 0]])


def test_validate_zero():
    with pytest.raises(ZeroForm):
        validate(QQ, [[0, 0], [1, 0]])


def test_validate_nine4d():
    A = nine4d()
    assert A.n == 9
    assert A.essential_rank == 4


def test_canonicalization():
    A = validate(QQ, [[Fraction(1, 2), Fraction(3, 2)], [0, -5]])
    assert A.forms[0].coeffs == (1, 3)
    assert A.forms[1].coeffs == (0, 1)


def test_delete():
    A = boolean(3)
    B = A.delete(2)
    assert B.n == 2
    assert B.forms == A.forms[:2]
    with pytest.raises(IndexError):
        A.delete(5)
    G = grr3(3, GF(7))
    assert all(G.delete(i).n == 8 for i in range(9))


def test_lattice_boolean():
    A = boolean(3)
    L = intersection_lattice(A)
    assert len(L.flats(1)) == 3
    assert len(L.flats(2)) == 3
    assert len(L.flats(3)) == 1


def test_lattice_mobius_recursion():
    A = braid(4)
    L = intersection_lattice(A)
    flats = list(L.all_flats())
    for X in flats:
        if X.codim == 0:
            assert X.mu == 1
            continue
        total = sum(Z.mu for Z in flats if Z.members <= X.members)
        assert total == 0


def test_lattice_generic_counts():
    A = generic(5, 3, seed=2)
    L = intersection_lattice(A)
    assert len(L.flats(2)) == 10  # C(5,2) distinct double intersections
    # brute force oracle over pairs/triples via rank computations
    pair_keys = set()
    for i, j in combinations(range(5), 2):
        M = Matrix(QQ, [A.forms[i].coeffs, A.forms[j].coeffs])
        assert rank(M) == 2
        pair_keys.add((i, j))
    assert len(pair_keys) == 10


def _lattice_listing_digest(L):
    lines = []
    for k, level in enumerate(L.levels):
        for F in level:
            key = ";".join(",".join(str(x) for x in row) for row in F.key)
            lines.append(f"{k}|{F.codim}|{sorted(F.members)}|{key}|{F.mu}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize(
    "make, sizes, digest",
    [
        (ziegler22, [1, 22, 146, 318, 1], "1f1c8fdb1a814ccabb66c61f3328e8f507923ef53f982e01abe74cbf987e49c8"),
        (nine4d, [1, 9, 24, 15, 1], "5bc5b9ed7a1bd401d8ed7163c02794084d5a8145cab16af4bc7b4ccde81b5af5"),
    ],
    ids=["ziegler22", "nine4d"],
)
def test_lattice_levels_members_keys_and_mu_are_frozen(make, sizes, digest):
    # the order of the flats in each level, their members, echelon keys and
    # Mobius values, as the join-every-hyperplane construction gave them
    L = intersection_lattice(make())
    assert [len(level) for level in L.levels] == sizes
    assert _lattice_listing_digest(L) == digest


def test_grr3_restriction_sizes():
    A = grr3(3, GF(7))
    assert A.n == 9
    for i in range(A.n):
        assert A.restrict(i).restricted.n == 4  # r + 1 lines on each plane


def test_grr3_roots():
    A = grr3(3, GF(7))
    # roots of unity mod 7 for r=3 are {1, 2, 4}
    from arrlog.library import roots_of_unity

    assert roots_of_unity(GF(7), 3) == [1, 2, 4]
    with pytest.raises(FieldUnsupported):
        grr3(3, QQ)
    with pytest.raises(FieldUnsupported):
        grr3(3, GF(5))


def test_characteristic_polynomial_boolean():
    # (t - 1)^2
    assert characteristic_polynomial(boolean(2)) == [1, -2, 1]


def test_characteristic_polynomial_braid3():
    # t(t-1)(t-2) = t^3 - 3t^2 + 2t
    assert characteristic_polynomial(braid(3)) == [0, 2, -3, 1]


def test_characteristic_polynomial_braid_whitney_oracle():
    # Whitney: chi(t) = sum over subsets S of (-1)^{|S|} t^{ell - rank(S)}
    for A in (braid(3), braid(4), boolean(3)):
        coeffs = [0] * (A.ell + 1)
        for k in range(A.n + 1):
            for S in combinations(range(A.n), k):
                if S:
                    rk = rank(Matrix(A.field, [A.forms[i].coeffs for i in S]))
                else:
                    rk = 0
                coeffs[A.ell - rk] += (-1) ** k
        assert characteristic_polynomial(A) == coeffs


def test_characteristic_polynomial_point_count_oracle():
    # over F_q the complement of the arrangement has chi(q) points
    A = braid(4)
    for q in (5, 7):
        F = GF(q)
        Aq = validate(F, [[F.of(c) for c in f.coeffs] for f in A.forms])
        count = 0
        for x in range(q):
            for y in range(q):
                for z in range(q):
                    for w in range(q):
                        pt = (x, y, z, w)
                        if all(
                            sum(int(c) * v for c, v in zip(f.coeffs, pt)) % q
                            for f in Aq.forms
                        ):
                            count += 1
        assert count == sum(c * q**k for k, c in enumerate(characteristic_polynomial(A)))


def test_characteristic_polynomial_ziegler22():
    # expected (t-1)(t-5)(t-7)(t-9), derived through the Mobius sum
    A = ziegler22()
    got = characteristic_polynomial(A)
    expect = [1]
    for root in (1, 5, 7, 9):
        expect = [0] + expect  # multiply by t
        expect = [c - root * d for c, d in zip(expect[:-1] + [0], expect[1:] + [0])]
    # direct expansion instead: poly multiply
    coeffs = [1]
    for root in (1, 5, 7, 9):
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] += c
            nxt[i] -= root * c
        coeffs = nxt
    assert got == coeffs


def test_restrict_boolean():
    A = boolean(3)
    res = A.restrict(2)
    assert res.restricted.n == 2
    assert res.restricted.ell == 2
    # embedding rows span the hyperplane x3 = 0
    for row in res.embedding.rows:
        assert sum(c * v for c, v in zip(A.forms[2].coeffs, row)) == 0
    # count invariant
    for i in range(A.n):
        assert A.restrict(i).restricted.n <= A.n - 1


def test_restrict_ziegler22_count():
    A = ziegler22()
    H = LinearForm(QQ, [1, 1, 1, 0])
    B = A.add_hyperplane(H)
    res = B.restrict(B.n - 1)
    assert res.restricted.n == 22
    assert res.restricted.ell == 3


def test_is_k_generic_examples():
    A = ziegler22()
    H = [LinearForm(QQ, [1, 1, 1, 0])]
    ok2, _ = is_k_generic(H, A, 2)
    ok3, witness = is_k_generic(H, A, 3)
    assert ok2 and not ok3
    assert witness is not None and witness.codim == 3

    # a member hyperplane is a flat: InLattice
    with pytest.raises(InLattice):
        is_k_generic([A.forms[0]], A, 1)

    B = nine4d()
    ok, _ = is_k_generic([LinearForm(QQ, [1, 3, 5, 7])], B, 3)
    assert ok


def test_essentialize():
    A = braid(3)
    assert A.essential_rank == 2
    E, C = A.essentialize()
    assert E.ell == 2 and E.n == 3 and E.is_essential()
    F = GF(7)
    forms = [[1, 0, 2, 3], [0, 1, 1, 5], [1, 1, 3, 1], [2, 1, 5, 4], [0, 0, 1, 1]]
    rank_three = validate(F, forms, [1, 2, 3, 1, 2])  # in 4 variables
    for A in (braid(4), rank_three):
        E, C = A.essentialize()
        assert E.ell == A.essential_rank == C.nrows and E.is_essential()
        assert E.mult == A.mult
        for form, e in zip(A.forms, E.forms):
            # e in the new variables y = C x is a multiple of the form in x
            pulled = C.transpose().mul_vec(list(e.coeffs))
            assert LinearForm(A.field, pulled).proportional_to(form)


def test_file_roundtrip():
    A = ziegler22()
    text = format_arrangement(A)
    B = parse_arrangement(text)
    assert B.forms == A.forms and B.mult == A.mult
    withm = "field Fp 7\ndim 2\n1 0 *2\n0 1\n"
    C = parse_arrangement(withm)
    assert C.mult == (2, 1)
    assert C.field == GF(7)


def test_file_errors():
    with pytest.raises(Exception) as e:
        parse_arrangement("field Q\ndim 2\n1 2 3\n")
    assert "line 3" in str(e.value)
