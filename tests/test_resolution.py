import numpy as np
import pytest

from arrlog.fields import GF, QQ
from arrlog.library import boolean, grr3, nine4d
from arrlog.poly import LinearForm
from arrlog.resolution import betti_table, spog_detect
from arrlog.solver import free_piece_dimension, minimal_generators


def test_free_module_single_column():
    bt = betti_table(minimal_generators(boolean(3), "O"))
    assert bt.pd == 0
    assert bt.twist_multisets() == [[-1, -1, -1]]
    assert bt.certified_free_tail and bt.hilbert_ok
    assert spog_detect(bt) is None


def test_boolean_plus_hyperplane_spog():
    # deletion free with exponents (1,1,1): dual strongly-plus-one
    # generated with exponent magnitudes (1,1,1) and level -|A|+|A^H| = -1
    A = boolean(3).add_hyperplane(LinearForm(QQ, [1, 2, 3]))
    bt = betti_table(minimal_generators(A, "O"))
    assert bt.pd == 1
    assert bt.twist_multisets() == [[-1, -1, -1, -1], [0]]
    sp = spog_detect(bt)
    assert sp is not None
    assert sp.poexp == [1, 1, 1]
    assert sp.level == -1
    assert any(c for c in sp.alpha_coeffs)


def test_grr3_deletion_dual_spog():
    # the deletion of a free (1,4,4) arrangement: the refined statement
    # predicts exponent magnitudes (1,3,3) and a level element in degree
    # d2 + d3 - |A| + |A^H| = -3 (as a form degree)
    G = grr3(3, GF(7))
    bt = betti_table(minimal_generators(G.delete(0), "O"))
    assert bt.certified_free_tail
    assert bt.pd == 1
    assert bt.twist_multisets() == [[-3, -3, -3, -1], [-2]]
    sp = spog_detect(bt)
    assert sp is not None
    assert sp.poexp == [1, 3, 3]
    assert sp.level == -3


def test_hilbert_consistency_against_free_formula():
    A = boolean(3)
    bt = betti_table(minimal_generators(A, "D"))
    for d, dim in bt.dims.items():
        assert dim == free_piece_dimension(3, [1, 1, 1], d)


def test_nine4d_cut_betti():
    # restriction of the 9-hyperplane example to its generic hyperplane:
    # five generators in degrees {-1, -2, -2, -2, -3}
    N = nine4d()
    B = N.add_hyperplane(LinearForm(QQ, [1, 3, 5, 7]))
    from arrlog.arrangement import restrict

    AH = restrict(B, B.n - 1).restricted
    bt = betti_table(minimal_generators(AH, "O"))
    assert bt.certified_free_tail
    assert bt.columns[0].twists and sorted(set(bt.columns[0].twists)) == [-3, -2, -1]
    assert bt.pd >= 1  # five generators on a rank-3 module force relations


# ---------------------------------------------------------------------------
# betti_table seeded with a generator set the caller already has
# ---------------------------------------------------------------------------


def _summary(bt):
    return (bt.twist_multisets(), bt.pd, bt.hilbert_ok, bt.certified_free_tail,
            bt.validity_bound, bt.dims)


def test_betti_table_from_generators_matches_unseeded():
    # the summaries are those of the tables that swept column 0 themselves
    from arrlog.solver import free_base_from_saito, saito_check

    B = boolean(3)
    sr = saito_check(B)
    A = B.add_hyperplane(LinearForm(QQ, [1, 2, 3]))
    fb = free_base_from_saito(sr)
    G = grr3(3, GF(7)).delete(0)
    a_forms = (
        [[-1, -1, -1, -1], [0]], 1, True, True, 4,
        {-4: 0, -3: 0, -2: 0, -1: 4, 0: 11, 1: 21, 2: 34, 3: 50, 4: 69},
    )
    cases = [
        (A, "O", {}, a_forms),
        (A, "O", {"base": fb}, a_forms),
        (A, "D", {}, (
            [[1, 2, 2, 2], [3]], 1, True, True, 7,
            {0: 0, 1: 1, 2: 6, 3: 14, 4: 25, 5: 39, 6: 56, 7: 76},
        )),
        (G, "O", {}, (
            [[-3, -3, -3, -1], [-2]], 1, True, True, 4,
            {-8: 0, -7: 0, -6: 0, -5: 0, -4: 0, -3: 3, -2: 8, -1: 16, 0: 27, 1: 41, 2: 58, 3: 78, 4: 101},
        )),
    ]
    for X, kind, kw, want in cases:
        gs = minimal_generators(X, kind, **kw)
        got = betti_table(gs)
        assert _summary(got) == want
        assert got.generator_set is gs
        assert got.arrangement is X and (got.kind, got.order) == (kind, 1)


def test_betti_table_of_a_truncated_saito_sweep():
    from arrlog.solver import saito_check

    # the Saito sweep stops once it has 4 > 3 generators, at degree 2; its
    # set holds every generator of (0, 2), and the table extends that window
    A = boolean(3).add_hyperplane(LinearForm(QQ, [1, 2, 3]))
    gs = saito_check(A).generators
    assert gs.degrees == [1, 2, 2, 2] and gs.degree_bound_used == (0, 2)
    full = minimal_generators(A, "D")
    assert full.degree_bound_used == (0, 4) and full.degrees == gs.degrees
    got = betti_table(gs)
    assert _summary(got) == _summary(betti_table(full)) and got.pd == 1


# ---------------------------------------------------------------------------
# relation sweeps over Q read the eval-map ranks from certified dimensions
# ---------------------------------------------------------------------------


def _four_extra():
    B = boolean(3)
    for c in [(1, 1, 0), (1, 0, 1), (1, 2, 3), (0, 1, 1)]:
        B = B.add_hyperplane(LinearForm(QQ, list(c)))
    return B


class _Marked(np.ndarray):
    """A constraint matrix of a relation sweep."""


def _count_constraint_ranks(monkeypatch):
    from arrlog import solver

    calls = [0]
    build_mod = solver.EvalKernelFamily.build_mod
    rank_mod = solver.rank_mod

    def marked(self, d, p, cols=None):
        return build_mod(self, d, p, cols).view(_Marked)

    def counting(A, p):
        calls[0] += isinstance(A, _Marked)
        return rank_mod(A, p)

    monkeypatch.setattr(solver.EvalKernelFamily, "build_mod", marked)
    monkeypatch.setattr(solver, "rank_mod", counting)
    return calls


def test_relation_sweep_reads_certified_dims(monkeypatch):
    from arrlog import solver

    cases = [
        (boolean(3).add_hyperplane(LinearForm(QQ, [1, 2, 3])), "O"),
        (boolean(3).add_hyperplane(LinearForm(QQ, [1, 2, 3])), "D"),
        (_four_extra(), "O"),
        (_four_extra(), "D"),
    ]
    for A, kind in cases:
        with monkeypatch.context() as mp:
            calls = _count_constraint_ranks(mp)
            got = betti_table(minimal_generators(A, kind))
            assert calls[0] == 0
            # the same table with every constraint rank eliminated mod p
            mp.setattr(solver.EvalKernelFamily, "known_rank", lambda self, d: None)
            want = betti_table(minimal_generators(A, kind))
            assert calls[0] > 0
        assert got.pd >= 1
        assert _summary(got) == _summary(want)
        assert got.notes == want.notes == []


def test_relation_sweep_after_generator_beyond_window(monkeypatch):
    # the window misses a module generator, so column 0 does not span the
    # module above it and the relation sweep eliminates its constraints;
    # the values are those of the sweep that always eliminated
    A = _four_extra()
    frozen = {
        ("O", (-7, -2)): (
            [[-2, -2, -2, -2], [-1, -1]], 1, 3, False, False,
            {-7: 0, -6: 0, -5: 0, -4: 0, -3: 0, -2: 4, -1: 11, 0: 21, 1: 34, 2: 50, 3: 69},
            ["module generator beyond the sweep window at degree -1"]
            + [f"Hilbert mismatch at degree {d}: table {t}, piece {g}"
               for d, t, g in [(-1, 10, 11), (0, 18, 21), (1, 28, 34), (2, 40, 50), (3, 54, 69)]],
        ),
        ("D", (0, 3)): (
            [[1]], 0, 6, False, False,
            {0: 0, 1: 1, 2: 3, 3: 6, 4: 14, 5: 25, 6: 39},
            ["module generator beyond the sweep window at degree 4"]
            + [f"Hilbert mismatch at degree {d}: table {t}, piece {g}"
               for d, t, g in [(4, 10, 14), (5, 15, 25), (6, 21, 39)]],
        ),
    }
    for (kind, window), (twists, pd, bound, hilbert, cert, dims, notes) in frozen.items():
        with monkeypatch.context() as mp:
            calls = _count_constraint_ranks(mp)
            bt = betti_table(minimal_generators(A, kind, degree_range=window))
            assert calls[0] > 0
        assert bt.twist_multisets() == twists
        assert (bt.pd, bt.validity_bound, bt.hilbert_ok, bt.certified_free_tail) == (pd, bound, hilbert, cert)
        assert bt.dims == dims
        assert bt.notes == notes
