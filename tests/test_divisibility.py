"""Divisibility tables and constraint assembly against the Poly-loop oracle.

The oracle is the former construction, kept here verbatim in substance:
each table column expands x_k^e * rest through Poly powers of -L, and the
engines' constraint blocks are assembled term by term from those tables.
The pattern-based tables and `build_mod` outputs must be bit-identical.
"""

import random
from functools import lru_cache
from math import comb

import numpy as np
import pytest

from arrlog.fields import GF, QQ
from arrlog.library import braid, generic, grr3, ziegler22
from arrlog.modular import PRIMES
from arrlog.divisibility import divisibility_table_mod, monomial_exponents, monomial_rank
from arrlog.poly import LinearForm, Poly, divisibility_row_data, monomial_basis, monomial_index
from arrlog.solver import (
    AmbientEngine,
    RelativeEngine,
    _coeff_mod,
    _condition_poly,
    _form_mod,
    boolean_like_base,
    condition_terms,
    free_base_from_saito,
    saito_check,
    shift_table,
)

LADDER = (PRIMES[0], PRIMES[47])


# ---------------------------------------------------------------------------
# oracle: the Poly-loop construction
# ---------------------------------------------------------------------------


def _oracle_pivot_powers(alpha, max_e, m):
    fld = alpha.field
    ell = alpha.ell
    k = alpha.pivot()
    inv_ak = fld.inv(alpha.coeffs[k])
    L = Poly(fld, ell, {
        tuple(1 if j == i else 0 for j in range(ell)): c
        for i, c in enumerate(alpha.coeffs) if c and i != k
    })
    negL = -L
    neg_pows = [Poly.const(fld, ell, 1)]
    for _ in range(max_e):
        neg_pows.append(neg_pows[-1] * negL)
    table = []
    for e in range(max_e + 1):
        scale = fld.one
        for _ in range(e):
            scale = fld.mul(scale, inv_ak)
        per_t = {}
        for t in range(min(m, e + 1)):
            c = fld.mul(scale, fld.of(comb(e, t)))
            per_t[t] = neg_pows[e - t].scale(c)
        table.append(per_t)
    return table, k


def oracle_row_data(alpha, m, degree):
    if degree < 0:
        return 0, []
    ell = alpha.ell
    basis = monomial_basis(ell, degree)
    max_e = max((mono[alpha.pivot()] for mono in basis), default=0)
    table, k = _oracle_pivot_powers(alpha, max_e, m)
    row_index = {}
    count = 0
    for t in range(m):
        for mono in monomial_basis(ell, degree - t) if degree - t >= 0 else ():
            if mono[k] == 0:
                row_index[(t, mono)] = count
                count += 1
    columns = []
    for mono in basis:
        e = mono[k]
        rest = mono[:k] + (0,) + mono[k + 1:]
        col = []
        for t, expansion in table[e].items():
            for em, c in expansion.terms.items():
                target = tuple(x + y for x, y in zip(em, rest))
                col.append((row_index[(t, target)], c))
        columns.append(col)
    return count, columns


def oracle_table(alpha, m, degree):
    nrows, columns = oracle_row_data(alpha, m, degree)
    dense = np.zeros((nrows, len(columns)), dtype=np.int64)
    for j, col in enumerate(columns):
        for i, c in col:
            dense[i, j] = int(c)
    return dense


@lru_cache(maxsize=None)
def oracle_shift_table(ell, d_src, mono):
    tgt = monomial_index(ell, d_src + sum(mono))
    return np.array(
        [tgt[tuple(a + b for a, b in zip(m, mono))] for m in monomial_basis(ell, d_src)],
        dtype=np.int64,
    )


def oracle_ambient_build(eng, d, p):
    N = eng.numerator_degree(d)
    ncols = eng.space.dim(d)
    if N < 0 or ncols == 0:
        return np.zeros((0, max(ncols, 0)), dtype=np.int64)
    dimS = len(monomial_basis(eng.A.ell, N))
    blocks = []
    for h in range(eng.A.n):
        alpha = _form_mod(eng.A.forms[h], p)
        dense = oracle_table(alpha, eng.A.mult[h], N)
        conds = condition_terms(eng.kind, eng.order, alpha)
        M = np.zeros((dense.shape[0] * len(conds), ncols), dtype=np.int64)
        for ci, terms in enumerate(conds):
            r = slice(ci * dense.shape[0], (ci + 1) * dense.shape[0])
            for b, c in terms:
                cols = slice(b * dimS, (b + 1) * dimS)
                M[r, cols] = (M[r, cols] + int(c) % p * dense) % p
        blocks.append(M)
    if not blocks:
        return np.zeros((0, ncols), dtype=np.int64)
    return np.vstack(blocks)


def oracle_carriers(eng, h):
    """Per condition of hyperplane h: [(block i, carrier Poly)], zero carriers left out."""
    conds = []
    for terms in condition_terms(eng.kind, eng.order, eng.A.forms[h]):
        carriers = ((i, _condition_poly(cv.numerators, terms)) for i, cv in enumerate(eng._basis))
        conds.append([(i, w) for i, w in carriers if not w.is_zero()])
    return conds


def oracle_relative_build(eng, d, p):
    ell = eng.A.ell
    block_degs = eng.space.block_degrees(d)
    ncols = eng.space.dim(d)
    if ncols == 0 or all(bd < 0 for bd in block_degs):
        return np.zeros((0, max(ncols, 0)), dtype=np.int64)
    N = eng.numerator_degree(d)
    offsets = np.cumsum([0] + [len(monomial_basis(ell, bd)) if bd >= 0 else 0 for bd in block_degs])
    blocks = []
    for h in eng.complement:
        dense = oracle_table(_form_mod(eng.A.forms[h], p), eng.A.mult[h], N)
        conds = oracle_carriers(eng, h)
        M = np.zeros((dense.shape[0] * len(conds), ncols), dtype=np.int64)
        for ci, terms in enumerate(conds):
            r = slice(ci * dense.shape[0], (ci + 1) * dense.shape[0])
            for i, carrier in terms:
                bd = block_degs[i]
                if bd < 0:
                    continue
                cols = slice(offsets[i], offsets[i + 1])
                for cm, cc in carrier.terms.items():
                    tab = oracle_shift_table(ell, bd, cm)
                    M[r, cols] = (M[r, cols] + _coeff_mod(cc, p) * dense[:, tab]) % p
        blocks.append(M)
    if not blocks:
        return np.zeros((0, ncols), dtype=np.int64)
    return np.vstack(blocks)


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def _random_form(rng, ell, p):
    """Coefficients mod p with some zeros, never all zero."""
    while True:
        coeffs = [0 if rng.random() < 0.3 else rng.randrange(1, p) for _ in range(ell)]
        if any(coeffs):
            return LinearForm(GF(p), coeffs)


def _assert_same_table(alpha, m, degree):
    got = divisibility_table_mod(alpha, m, degree)
    want = oracle_table(alpha, m, degree)
    assert got.dtype == np.int64
    assert got.shape == want.shape, (alpha, m, degree)
    assert np.array_equal(got, want), (alpha, m, degree)


@pytest.mark.parametrize("p", [3, 5, 7, 1009, *LADDER])
@pytest.mark.parametrize("ell", [1, 2, 3, 4, 5])
def test_table_matches_oracle(ell, p):
    # C(e, t) vanishes mod 3, 5 and 7 for some e <= 9, t < 4
    rng = random.Random(1000 * ell + p)
    for m in (1, 2, 3, 4):
        for degree in (-1, *range(10)):
            _assert_same_table(_random_form(rng, ell, p), m, degree)


@pytest.mark.parametrize("ell", [2, 3, 4])
def test_table_pivot_not_first(ell):
    # forms whose pivot is the last variable, or whose only other
    # coefficients vanish
    for p in (5, LADDER[0]):
        fld = GF(p)
        for coeffs in ([0] * (ell - 1) + [3], [0, 2] + [0] * (ell - 2), [0] * (ell - 2) + [1, p - 1]):
            alpha = LinearForm(fld, coeffs)
            for m in (1, 3):
                for degree in (0, 1, 4, 6):
                    _assert_same_table(alpha, m, degree)


def test_table_qq_form_reduced_at_its_pivot_prime():
    # the pivot coefficient vanishes mod p, so the reduced form has a
    # different pivot (and a different pattern) than over Q
    for p in (7, LADDER[1]):
        alpha = LinearForm(QQ, [p, 2, -3, 5])
        reduced = _form_mod(alpha, p)
        assert reduced.pivot() == 1 and alpha.pivot() == 0
        for m in (1, 2, 3):
            for degree in (0, 3, 6):
                _assert_same_table(reduced, m, degree)


def test_row_data_matches_oracle_over_q_and_fp():
    rng = random.Random(7)
    for fld in (QQ, GF(5), GF(LADDER[0])):
        for ell in (1, 2, 3, 4):
            for m in (1, 2, 3):
                for degree in (-2, 0, 1, 3, 5):
                    p = getattr(fld, "p", 11)
                    coeffs = [0 if rng.random() < 0.3 else rng.randrange(1, p) for _ in range(ell)]
                    coeffs[rng.randrange(ell)] = rng.randrange(1, p)
                    alpha = LinearForm(fld, coeffs)
                    nrows, columns = divisibility_row_data(alpha, m, degree)
                    onrows, ocolumns = oracle_row_data(alpha, m, degree)
                    assert nrows == onrows
                    assert [dict(c) for c in columns] == [dict(c) for c in ocolumns]


def test_divisibility_multiplicity_must_be_positive():
    alpha = LinearForm(GF(5), [1, 2])
    with pytest.raises(ValueError):
        divisibility_table_mod(alpha, 0, 3)
    with pytest.raises(ValueError):
        divisibility_row_data(alpha, 0, 3)


# ---------------------------------------------------------------------------
# monomial ranks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("ell", [1, 2, 3, 5])
def test_monomial_rank_is_basis_position(ell):
    for d in range(7):
        E = monomial_exponents(ell, d)
        assert np.array_equal(monomial_rank(E), np.arange(len(E)))
    assert monomial_exponents(0, 0).shape == (1, 0)
    assert monomial_exponents(0, 2).shape == (0, 0)


def test_shift_table_matches_dict_lookup():
    for ell in (1, 2, 3, 4):
        for d_src in (0, 1, 4):
            for deg in (0, 1, 3):
                for mono in monomial_basis(ell, deg):
                    got = shift_table(ell, d_src, mono)
                    assert got.dtype == np.int64
                    assert np.array_equal(got, oracle_shift_table(ell, d_src, mono))


# ---------------------------------------------------------------------------
# engines
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", LADDER)
def test_ambient_build_mod_matches_oracle_on_ziegler22(p):
    A = ziegler22()
    degQ = A.deg_Q()
    for kind, degrees in (("O", (-degQ, -degQ + 2, -degQ + 5)), ("D", (0, 2, 4))):
        eng = AmbientEngine(A, kind, 1)
        for d in degrees:
            assert np.array_equal(eng.build_mod(d, p), oracle_ambient_build(eng, d, p)), (kind, d)
    eng = AmbientEngine(A, "O", 2)
    for d in (-degQ, -degQ + 3):
        assert np.array_equal(eng.build_mod(d, p), oracle_ambient_build(eng, d, p))


@pytest.mark.parametrize("p", LADDER)
def test_relative_build_mod_matches_oracle_on_ziegler22(p):
    A = ziegler22()
    base = boolean_like_base(A)
    for kind, degrees in (("O", (-A.n + 1, -A.n + 3, -A.n + 6)), ("D", (1, 3, 5))):
        eng = RelativeEngine(A, kind, base)
        for d in degrees:
            assert np.array_equal(eng.build_mod(d, p), oracle_relative_build(eng, d, p)), (kind, d)


def test_ambient_build_mod_with_multiplicities():
    # multiplicities above one give tables with m > 1 inside the engine;
    # the ambient carriers are constants, which scale the table
    A = grr3(3, GF(7))
    A = type(A)(A.field, A.ell, A.forms, [1 + i % 3 for i in range(A.n)])
    rng = np.random.default_rng(3)
    for kind, degrees in (("D", (0, 3, 6)), ("O", (-A.deg_Q(), -A.deg_Q() + 2, -A.deg_Q() + 4))):
        eng = AmbientEngine(A, kind, 1)
        for d in degrees:
            want = oracle_ambient_build(eng, d, 7)
            assert np.array_equal(eng.build_mod(d, 7), want), (kind, d)
            cols = np.flatnonzero(rng.random(want.shape[1]) < 0.5)
            assert np.array_equal(eng.build_mod(d, 7, cols), want[:, cols]), (kind, d)


@pytest.mark.parametrize("p", LADDER)
def test_relative_build_mod_matches_oracle_on_the_cut_engine(p):
    # the engine of a generic cut over ziegler22's Saito base: one
    # complement hyperplane, carriers of degree 13 to 21
    A1 = ziegler22()
    A = A1.add_hyperplane(LinearForm(QQ, [1, 3, 7, 20]))
    assert A.is_simple()
    eng = RelativeEngine(A, "O", free_base_from_saito(saito_check(A1)))
    assert sorted(eng.numerator_degree(0) - bd for bd in eng.space.block_degrees(0)) == [13, 15, 17, 21]
    for d in (-9, -4, -2):
        want = oracle_relative_build(eng, d, p)
        assert np.array_equal(eng.build_mod(d, p), want), d
    # columns that leave out the whole second block and half of the others
    sizes = [len(monomial_basis(4, bd)) if bd >= 0 else 0 for bd in eng.space.block_degrees(-2)]
    assert all(sizes)
    start = np.cumsum([0] + sizes)
    rng = np.random.default_rng(p % 1000)
    cols = np.array([c for c in range(start[-1]) if not start[1] <= c < start[2] and rng.random() < 0.5])
    assert np.array_equal(eng.build_mod(-2, p, cols), want[:, cols])


def test_relative_build_mod_matches_oracle_on_a_saito_base_over_fp():
    # carriers of degrees 1, 2 and 3: one block degree comes back with
    # another carrier degree as d grows
    p = 1009
    A1, _ = braid(4, GF(p)).essentialize()
    A = A1.add_hyperplane(LinearForm(GF(p), [1, 5, 17]))
    base = free_base_from_saito(saito_check(A1))
    for kind, degrees in (("D", range(0, 9)), ("O", range(-A.n, 1))):
        eng = RelativeEngine(A, kind, base)
        for d in degrees:
            want = oracle_relative_build(eng, d, p)
            assert np.array_equal(eng.build_mod(d, p), want), (kind, d)
            cols = np.arange(0, want.shape[1], 3)
            assert np.array_equal(eng.build_mod(d, p, cols), want[:, cols]), (kind, d)


@pytest.mark.parametrize("seed", [1, 2])
def test_relative_build_mod_matches_oracle_on_generic_fp(seed):
    # the engines of the F_p Euler ledgers: generic rank-3 arrangements
    # over F_1009, both kinds, and a deletion
    p = 1009
    A = generic(6, 3, seed=seed, field=GF(p))
    rng = np.random.default_rng(seed)
    for B in (A, A.delete(4)):
        for kind, degrees in (("D", range(0, B.n + 1)), ("O", range(-B.n, 1))):
            eng = RelativeEngine(B, kind)
            for d in degrees:
                want = oracle_relative_build(eng, d, p)
                assert np.array_equal(eng.build_mod(d, p), want), (kind, d)
                cols = np.flatnonzero(rng.random(want.shape[1]) < 0.4)
                assert np.array_equal(eng.build_mod(d, p, cols), want[:, cols]), (kind, d)
