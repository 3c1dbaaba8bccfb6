"""Oracles from the theory that share no code path with the degree sweep.

Terao's factorization reads the characteristic polynomial off the
intersection lattice alone; Ziegler's multirestriction theorem predicts
the exponents of a multiarrangement that the ambient engine's
multiplicity path computes.  Both are checked against Saito-certified
exponents, over Q through both engines.
"""

import pytest

from arrlog.arrangement import restrict
from arrlog.fields import GF
from arrlog.lattice import characteristic_polynomial
from arrlog.library import boolean, braid, grr3, ziegler22
from arrlog.solver import (
    AmbientEngine,
    RelativeEngine,
    _saito_constant,
    saito_check,
    sweep_minimal_generators,
)


def _braid4():
    return braid(4).essentialize()[0]


FREE = {
    "boolean4": (lambda: boolean(4), [1, 1, 1, 1]),
    "braid4": (_braid4, [1, 2, 3]),
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
