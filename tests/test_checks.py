import hashlib
import json

import pytest

from arrlog.checks import (
    addition_deletion_check,
    calibrate_duality_shift,
    criticality_check,
    duality_dimension_check,
    euler_exactness_check,
    euler_ledgers,
    plus_one_extension_count,
    pole_degree_check,
    restriction_size_dichotomy,
)
from arrlog.fields import GF, QQ
from arrlog.arrangement import validate
from arrlog.library import boolean, braid, generic, grr3, nine4d, ziegler22
from arrlog.linalg import Matrix, rank
from arrlog.poly import LinearForm, divide_by_linear
from arrlog.report import PASS, Report
from arrlog.solver import graded_basis, graded_dimension


def test_criticality_grr3():
    A = grr3(3, GF(7))
    rep = criticality_check(A, 4)
    assert rep.critical
    assert rep.min_gap == 5
    assert not rep.conjecture86_holds
    assert rep.witness is not None


def test_criticality_boolean_negative():
    rep = criticality_check(boolean(3), 1)
    assert not rep.critical


def test_calibrate_duality_shift():
    surviving, evidence = calibrate_duality_shift()
    assert surviving == [0]  # shift = deg Q(A, m)


def test_duality_boolean_and_empty():
    rep = duality_dimension_check(boolean(2), (-4, 2))
    assert rep.ok and rep.shift == 2
    empty = validate(QQ, [], ell=2)
    rep = duality_dimension_check(empty, (-2, 3))
    assert rep.ok and rep.shift == 0


def test_duality_grr3():
    A = grr3(3, GF(7))
    rep = duality_dimension_check(A, (-10, 0))
    assert rep.ok


def test_euler_exactness_fp():
    A = generic(5, 3, seed=3, field=GF(1009))
    for i in (0, 2):
        led_d = euler_exactness_check(A, i, "D", degree_range=(0, 6))
        assert led_d.exact
        led_o = euler_exactness_check(A, i, "O", degree_range=(-5, 0))
        assert led_o.exact


@pytest.mark.parametrize("field", [GF(1009), QQ], ids=["F1009", "QQ"])
def test_euler_ledgers_match_single_checks(field):
    # over QQ, hyperplanes 3 and 4 used to hit a wrong early lift and raise
    A = generic(5, 3, seed=3, field=field)
    for kind, rng in (("D", (0, 6)), ("O", (-5, 0))):
        ledgers = euler_ledgers(A, kind, degree_range=rng)
        assert [led.index for led in ledgers] == list(range(A.n))
        for i, led in enumerate(ledgers):
            single = euler_exactness_check(A, i, kind, degree_range=rng)
            assert (led.rows, led.exact) == (single.rows, single.exact), (kind, i)
            assert led.exact, (kind, i)


def test_claim_euler_ledgers_sweeps_each_module_once(monkeypatch):
    from arrlog import checks
    from arrlog.claims import claim_euler_ledgers

    sweeps = []
    original = checks.minimal_generators

    def counting(*args, **kwargs):
        sweeps.append(args[:2])
        return original(*args, **kwargs)

    monkeypatch.setattr(checks, "minimal_generators", counting)
    rep = Report(command="test", field_spec="")
    claim_euler_ledgers(rep, 1)
    assert [c.status for c in rep.claims] == [PASS]
    # one D(A) sweep per arrangement (10) and one Omega(A') sweep per
    # deletion (4 + 5 + 6 + 7 + 8 hyperplanes, twice)
    assert len(sweeps) == 70
    assert sum(1 for _, kind in sweeps if kind == "D") == 10


# sha256 of the claim JSON, of every ledger row and of every restricted
# generator (numerator reprs, in call order) that `claim_euler_ledgers`
# computes over F_1009, frozen from the restriction maps that substituted
# each numerator term by term
EULER_LEDGER_DIGESTS = {
    1: (
        "9a2c664c86fd82bc5765f1d61d849d63a87a08f3da22a266ac8e35ef87d4c5d2",
        "a4c1f7b6134f93e1996a0fe3667cdf3c987c45fc72af7e5f2d49a9ddb2c74aad",
        "61055de0a24c2a3c844b19534d380d7b87ab6d5175a184d1a1caa48391c3a7f3",
    ),
    2: (
        "2382fc59f25961a1598d36c93c0f5f478221ff2df765568655bdba4d64764ae2",
        "a4c1f7b6134f93e1996a0fe3667cdf3c987c45fc72af7e5f2d49a9ddb2c74aad",
        "ba2554b41d2a00f039394bba00ead74f08426fd0655d025ce201a1882c071a88",
    ),
}


@pytest.mark.parametrize("seed", sorted(EULER_LEDGER_DIGESTS))
def test_claim_euler_ledgers_outputs_are_frozen(monkeypatch, seed):
    from arrlog import claims, maps

    ledgers = []
    images = hashlib.sha256()

    def recording_ledgers(*args, **kwargs):
        out = original_ledgers(*args, **kwargs)
        ledgers.append([(led.kind, led.index, led.rows, led.exact) for led in out])
        return out

    def recording(restriction_map):
        def wrapped(*args, **kwargs):
            out = restriction_map(*args, **kwargs)
            images.update(repr(out.numerators).encode())
            return out

        return wrapped

    original_ledgers = claims.euler_ledgers
    monkeypatch.setattr(claims, "euler_ledgers", recording_ledgers)
    monkeypatch.setattr(maps, "euler_restrict_der", recording(maps.euler_restrict_der))
    monkeypatch.setattr(maps, "restrict_form", recording(maps.restrict_form))
    rep = Report(command="test", field_spec="F1009", seed=seed)
    claims.claim_euler_ledgers(rep, seed)
    assert [c.status for c in rep.claims] == [PASS]
    got = (
        hashlib.sha256(rep.to_json().encode()).hexdigest(),
        hashlib.sha256(json.dumps(ledgers).encode()).hexdigest(),
        images.hexdigest(),
    )
    assert got == EULER_LEDGER_DIGESTS[seed]


def test_addition_deletion_boolean_chain():
    A = boolean(3)
    rep = addition_deletion_check(A, 2)
    assert rep.applicable and rep.consistent


def test_addition_deletion_braid():
    A, _ = braid(4).essentialize()
    for i in range(A.n):
        rep = addition_deletion_check(A, i)
        if rep.applicable:
            assert rep.consistent


def test_dichotomy_grr3_and_braid():
    holds, rows, exps = restriction_size_dichotomy(grr3(3, GF(7)))
    assert holds and exps == (1, 4, 4)
    assert all(size == 4 for _, size, _ in rows)
    holds, rows, exps = restriction_size_dichotomy(braid(4))
    assert holds and exps == (1, 2, 3)


def test_pole_degree_bound():
    holds, rows = pole_degree_check(grr3(3, GF(7)))
    assert holds and rows


def test_plus_one_extension_boolean():
    A = boolean(3).add_hyperplane(LinearForm(QQ, [1, 2, 3]))
    assert plus_one_extension_count(A, A.n - 1) == 1


def _regular_dimension(A, i, d):
    """Oracle: dim of the degree-d 1-forms of A whose numerators A.forms[i] divides."""
    vectors = graded_basis(A, "O", 1, d)
    remainders = [[divide_by_linear(f, A.forms[i])[1] for f in cv.numerators] for cv in vectors]
    columns = sorted({(k, m) for rem in remainders for k, r in enumerate(rem) for m in r.terms})
    if not columns:
        return len(vectors)
    rows = [[rem[k].coeff(m) for k, m in columns] for rem in remainders]
    return len(vectors) - rank(Matrix(A.field, rows))


PLUS_ONE_INPUTS = {
    "boolean3-plus-one": lambda: boolean(3).add_hyperplane(LinearForm(QQ, [1, 2, 3])),
    "grr3-3-F7": lambda: grr3(3, GF(7)),
    "generic5-seed1-F1009": lambda: generic(5, 3, seed=1, field=GF(1009)),
    "generic6-seed2-QQ": lambda: generic(6, 3, seed=2),
    "boolean3-plus-one-mult1212": lambda: boolean(3)
    .add_hyperplane(LinearForm(QQ, [1, 1, 1]))
    .with_multiplicities([1, 2, 1, 2]),
}


@pytest.mark.parametrize("name", sorted(PLUS_ONE_INPUTS))
def test_regular_forms_are_the_forms_of_the_lowered_multiplicity(name):
    # the forms of A without a pole along H are those of A with H's
    # multiplicity lowered by one (H deleted at multiplicity 1), in every
    # degree of the window; the plus-one count subtracts their dimension
    A = PLUS_ONE_INPUTS[name]()
    for i in range(A.n):
        if A.mult[i] == 1:
            lowered = A.delete(i)
        else:
            lowered = A.with_multiplicities([m - (j == i) for j, m in enumerate(A.mult)])
        for d in range(-A.deg_Q(), 1):
            assert graded_dimension(lowered, "O", 1, d) == _regular_dimension(A, i, d), (i, d)
        d = A.restrict(i).restricted.n - A.n
        expected = graded_dimension(A, "O", 1, d) - _regular_dimension(A, i, d)
        assert plus_one_extension_count(A, i) == expected, i
