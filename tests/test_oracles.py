"""Oracles from the theory that share no code path with the degree sweep.

Terao's factorization reads the characteristic polynomial off the
intersection lattice alone; Ziegler's multirestriction theorem predicts
the exponents of a multiarrangement that the ambient engine's
multiplicity path computes.  Both are checked against Saito-certified
exponents, over Q through both engines.  Saito's criterion, which ends a
sweep at a basis, is checked against the sweep with the criterion off.
The paper's generic-cut theorem is checked on free sources at ell = 4.
"""

from itertools import combinations

import pytest

import arrlog.solver as solver
from arrlog.arrangement import restrict, validate
from arrlog.fields import GF, QQ
from arrlog.lattice import characteristic_polynomial
from arrlog.library import boolean, braid, grr3, nine4d, ziegler22
from arrlog.solver import (
    AmbientEngine,
    RelativeEngine,
    _saito_constant,
    free_base_from_saito,
    minimal_generators,
    saito_check,
    sweep_minimal_generators,
)


def _braid4():
    return braid(4).essentialize()[0]


def coxeter(ell: int, axes: bool):
    """The reflection arrangement x_i +- x_j (i < j), with the axes x_i for type B_ell, without for D_ell."""
    vecs = [[int(k == i) for k in range(ell)] for i in range(ell)] if axes else []
    for i, j in combinations(range(ell), 2):
        for sign in (1, -1):
            v = [0] * ell
            v[i], v[j] = 1, sign
            vecs.append(v)
    return validate(QQ, vecs, ell=ell)


FREE = {
    "boolean4": (lambda: boolean(4), [1, 1, 1, 1]),
    "braid4": (_braid4, [1, 2, 3]),
    "B3": (lambda: coxeter(3, True), [1, 3, 5]),
    "D4": (lambda: coxeter(4, False), [1, 3, 3, 5]),
    "B4": (lambda: coxeter(4, True), [1, 3, 5, 7]),
    "grr3-3-F7": (lambda: grr3(3, GF(7)), [1, 4, 4]),
    "ziegler22": (ziegler22, [1, 5, 7, 9]),
}


def _factor_product(roots):
    """Coefficients, lowest degree first, of prod (t - r)."""
    coeffs = [1]
    for r in roots:
        shifted = [0] + coeffs
        coeffs = [a - r * b for a, b in zip(shifted, coeffs + [0])]
    return coeffs


@pytest.mark.parametrize("engine", ["ambient", "relative"])
@pytest.mark.parametrize("name", FREE)
def test_terao_factorization(name, engine):
    # chi(A, t) = prod (t - d_i) over the exponents of a free arrangement,
    # with the Saito basis swept on each engine and its determinant checked
    make, exponents = FREE[name]
    A = make()
    eng = (AmbientEngine if engine == "ambient" else RelativeEngine)(A, "D")
    res = sweep_minimal_generators(eng, (0, max(exponents)))
    assert sorted(res.degrees) == exponents
    basis = [eng.to_coeffvector(el, d) for d, el in zip(res.degrees, res.elements)]
    assert _saito_constant(A, basis) is not None
    assert characteristic_polynomial(A) == _factor_product(exponents)


@pytest.mark.parametrize("name", ["braid4", "ziegler22"])
@pytest.mark.parametrize("i", [0, 1, 2])
def test_ziegler_multirestriction(name, i):
    # A free with exponents (1, d_2, ..., d_ell): for every hyperplane H the
    # multirestriction (A^H, z) is free with exponents (d_2, ..., d_ell)
    make, exponents = FREE[name]
    res = restrict(make(), i)
    multi = res.restricted.with_multiplicities(res.ziegler_mult)
    assert max(res.ziegler_mult) > 1
    got = saito_check(multi)
    assert got.free and got.exponents == exponents[1:]


RULE_CASES = {
    **{name: make for name, (make, _) in FREE.items()},
    "boolean3-multiplicities": lambda: boolean(3).with_multiplicities([2, 1, 3]),
    "nine4d": nine4d,
}


@pytest.mark.parametrize("kind", ["D", "O"])
@pytest.mark.parametrize("name", RULE_CASES)
def test_saito_rule_leaves_the_sweep_unchanged(name, kind, monkeypatch):
    # with the rule on, the sweep of a free module stops at a Saito basis
    # and the rest of its window gets the free module's dimensions; with
    # it off, the sweep runs to the end of the window.  nine4d is not
    # free, so the rule never fires there.  Without the rule ziegler22's
    # sweeps take 13 s (D) and 50 s (Omega), so its D window ends at 12;
    # its 1-forms and B4's (4 s a sweep) are swept over their Saito bases
    A = RULE_CASES[name]()
    kw = {}
    if name == "ziegler22" and kind == "D":
        kw = {"degree_range": (0, 12)}
    elif name in ("ziegler22", "B4") and kind == "O":
        kw = {"base": free_base_from_saito(saito_check(A))}
    constants = []

    def spy(A, cvs):
        constants.append(_saito_constant(A, cvs))
        return constants[-1]

    monkeypatch.setattr(solver, "_saito_constant", spy)
    on = minimal_generators(A, kind, **kw)
    monkeypatch.setattr(solver, "_saito_constant", lambda A, cvs: None)
    off = minimal_generators(A, kind, **kw)
    assert any(c is not None for c in constants) == (name != "nine4d")
    assert (on.degrees, on.dims, on.representatives) == (off.degrees, off.dims, off.representatives)


@pytest.mark.parametrize("name", ["D4", "B4"])
def test_generic_cut_theorem_on_a_free_source(name):
    # a seeded generic cut of a free arrangement at ell = 4: every claim of
    # the analysis, from the genericity certificate to the resolution, holds
    from arrlog.claims import generic_cut_analysis
    from arrlog.report import PASS, Report

    rep = Report(command="test", field_spec="Q")
    generic_cut_analysis(rep, FREE[name][0](), None, seed=1)
    assert len(rep.claims) == 6
    assert all(c.status == PASS for c in rep.claims), [(c.claim_id, c.status) for c in rep.claims]
