"""Truncated minimal free resolutions: graded Betti data and SPOG shapes.

Column 0 is the minimal generator data of the module; each further column
collects the minimal generators of the relation module of the previous
one, found degreewise as kernels of evaluation maps.  Degreewise linear
algebra cannot see past its degree window, so a table is only trusted
when the window was wide enough: the validity bound extends past the last
generator degree and a Hilbert-count consistency check over the whole
window must pass (certified_free_tail).  A short column-0 window is extended.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arrangement import Arrangement
from .poly import dim_homogeneous
from .solver import EvalKernelFamily, GeneratorSet, sweep_minimal_generators

# unused here: perfbench checks that its tracer wraps this by-name import
from .solver import minimal_generators


@dataclass
class BettiColumn:
    twists: list  # generator degrees of F_i (module degrees)
    representatives: list  # elements: coefficient tuples over the previous column


@dataclass
class BettiTable:
    arrangement: Arrangement
    kind: str
    order: int
    columns: list  # BettiColumn; columns[0] from the generator set
    pd: int
    validity_bound: int
    dims: dict  # degree -> exact module piece dimension
    hilbert_ok: bool
    certified_free_tail: bool
    generator_set: GeneratorSet
    notes: list

    def twist_multisets(self):
        return [sorted(c.twists) for c in self.columns]


def betti_table(generators: GeneratorSet) -> BettiTable:
    """Truncated minimal free resolution of the module `generators` spans.

    `generators` is column 0, every generator of its window (from
    minimal_generators or a SaitoResult); the table takes its
    arrangement, kind, order and window.  Its engine extends the
    dimension table past that window, however short, and the relation
    columns are swept up to validity_bound = (largest column-0 degree) +
    ell + 2.  The table is certified only if no module generator turns up
    past the window and the alternating Hilbert counts reproduce the
    directly computed piece dimensions at every checked degree.
    """
    gs = generators
    A, kind, order = gs.arrangement, gs.kind, gs.order
    field = A.field
    if not gs.degrees:
        return BettiTable(
            arrangement=A,
            kind=kind,
            order=order,
            columns=[BettiColumn([], [])],
            pd=0,
            validity_bound=gs.degree_bound_used[1],
            dims=dict(gs.dims),
            hilbert_ok=True,
            certified_free_tail=True,
            generator_set=gs,
            notes=["zero module in the swept window"],
        )
    validity_bound = max(gs.degrees) + A.ell + 2
    # extend the exact dimension table past the generator window,
    # flagging any generator that would appear beyond it
    prev_gens = list(zip(gs.degrees, gs.elements))
    ext = sweep_minimal_generators(
        gs.engine,
        (gs.degree_bound_used[1] + 1, validity_bound),
        gens=prev_gens,
    )
    dims = {**gs.dims, **ext.dims}
    notes = [f"module generator beyond the sweep window at degree {d}" for d in dict.fromkeys(ext.degrees)]
    uncertified = bool(ext.degrees)
    columns = [BettiColumn(list(gs.degrees), list(gs.elements))]
    prev_space = gs.engine.space
    # the eval map of a column's generators has the certified dimensions of
    # the module they span as its ranks over Q: column 0 spans its module
    # up to validity_bound unless a generator turned up beyond the window,
    # and a relation column spans its module over its whole sweep
    prev_dims = None if uncertified else dims
    while True:
        fam = EvalKernelFamily(prev_space, prev_gens, field, image_dims=prev_dims)
        lo = min(e for e, _ in prev_gens) + 1
        res = sweep_minimal_generators(fam, (lo, validity_bound))
        if not res.degrees:
            break
        columns.append(BettiColumn(list(res.degrees), list(res.elements)))
        prev_space = fam.space
        prev_gens = list(zip(res.degrees, res.elements))
        prev_dims = res.dims
        if len(columns) > A.ell + 2:
            notes.append("resolution longer than expected; stopping")
            uncertified = True
            break
    pd = len(columns) - 1
    # Hilbert consistency over every checked degree
    lo_check = min(dims)
    hilbert_ok = True
    for d in range(lo_check, validity_bound + 1):
        expected = 0
        sign = 1
        for col in columns:
            expected += sign * sum(dim_homogeneous(A.ell, d - e) for e in col.twists)
            sign = -sign
        got = dims.get(d)
        if got is not None and got != expected:
            hilbert_ok = False
            notes.append(f"Hilbert mismatch at degree {d}: table {expected}, piece {got}")
    certified = hilbert_ok and not uncertified
    return BettiTable(
        arrangement=A,
        kind=kind,
        order=order,
        columns=columns,
        pd=pd,
        validity_bound=validity_bound,
        dims=dims,
        hilbert_ok=hilbert_ok,
        certified_free_tail=certified,
        generator_set=gs,
        notes=notes,
    )


@dataclass
class SpogData:
    poexp: list  # exponent magnitudes of the non-level generators
    level: int  # degree of the level generator
    level_index: int
    alpha_coeffs: tuple  # the linear relation coordinate on the level generator
    relation_degree: int


def spog_detect(table: BettiTable):
    """Match the strongly-plus-one-generated shape on a certified table.

    Requires ell + 1 minimal generators, exactly one relation, and a
    nonzero linear coordinate in the relation on one generator (the
    level element).  Returns SpogData or None.  For the form-side module
    the exponent vector is reported as positive magnitudes to match the
    usual exponent conventions.
    """
    if not table.certified_free_tail:
        return None
    if len(table.columns) != 2:
        return None
    col0, col1 = table.columns
    ell = table.arrangement.ell
    if len(col0.twists) != ell + 1 or len(col1.twists) != 1:
        return None
    relation = col1.representatives[0]
    rel_degree = col1.twists[0]
    level_index = None
    alpha = None
    for j, coeff in enumerate(relation):
        if coeff.is_zero():
            continue
        if coeff.homogeneous_degree() == 1:
            level_index = j
            alpha = coeff
            break
    if level_index is None:
        return None
    level = col0.twists[level_index]
    others = [e for t, e in enumerate(col0.twists) if t != level_index]
    if table.kind == "O":
        poexp = sorted(-e for e in others)
    else:
        poexp = sorted(others)
    ellv = table.arrangement.ell
    coeffs = [0] * ellv
    for mono, c in alpha.terms.items():
        coeffs[[t for t, e in enumerate(mono) if e][0]] = c
    return SpogData(
        poexp=poexp,
        level=level,
        level_index=level_index,
        alpha_coeffs=tuple(coeffs),
        relation_degree=rel_degree,
    )
