"""Structural checks: criticality, duality dimension tables, Euler-sequence
exactness ledgers, addition-deletion consistency, restriction-size
dichotomy, pole-degree bounds, and the plus-one extension count.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .arrangement import Arrangement, restrict, validate
from .fields import QQ
from .maps import certified_image_rank, restrict_generators
from .poly import divisible_by_linear_power
from .solver import (
    AmbientEngine,
    CoeffVector,
    graded_basis,
    graded_dimension,
    minimal_generators,
    pick_engine,
    saito_check,
)


# ---------------------------------------------------------------------------
# criticality
# ---------------------------------------------------------------------------


@dataclass
class CriticalityReport:
    arrangement: Arrangement
    k: int
    dim_full: int
    deletion_dims: list
    critical: bool
    witness: CoeffVector | None
    gaps: list  # |A| - |A^H| per hyperplane
    min_gap: int
    conjecture86_holds: bool


def criticality_check(A: Arrangement, k: int) -> CriticalityReport:
    """k-criticality: the degree -k piece of the 1-forms survives every
    single-hyperplane deletion only in the full arrangement.

    Also reports the deletion-restriction gaps |A| - |A^H|; the classical
    expectation would be that some hyperplane achieves gap = k, recorded
    as conjecture86_holds.
    """
    basis = graded_basis(A, "O", 1, -k)
    dim_full = len(basis)
    witness = basis[0] if basis else None
    deletion_dims = []
    for i in range(A.n):
        deletion_dims.append(graded_dimension(A.delete(i), "O", 1, -k))
    critical = dim_full > 0 and all(x == 0 for x in deletion_dims)
    gaps = [A.n - restrict(A, i).restricted.n for i in range(A.n)]
    min_gap = min(gaps) if gaps else 0
    return CriticalityReport(
        arrangement=A,
        k=k,
        dim_full=dim_full,
        deletion_dims=deletion_dims,
        critical=critical,
        witness=witness,
        gaps=gaps,
        min_gap=min_gap,
        conjecture86_holds=any(g == k for g in gaps),
    )


# ---------------------------------------------------------------------------
# duality dimension tables
# ---------------------------------------------------------------------------


@dataclass
class DualityReport:
    arrangement: Arrangement
    shift: int
    rows: list  # (d, dim Omega^1_d, dim D^{ell-1}_{d+shift})
    ok: bool


def duality_dimension_check(A: Arrangement, degree_range=(-6, 2)) -> DualityReport:
    """Compare dim Omega^1(A, m)_d with dim D^{ell-1}(A, m)_{d + deg Q(A, m)}.

    The graded twist of the duality isomorphism is not normative here, so
    the shift deg Q(A, m) is the one calibrated on the empty and boolean
    arrangements; see calibrate_duality_shift.
    """
    return _duality_table(A, pick_engine(A, "O", 1), pick_engine(A, "D", A.ell - 1), degree_range, A.deg_Q())


def _duality_table(A: Arrangement, omega, top, degree_range, shift: int) -> DualityReport:
    """The table of dim Omega^1_d against dim D^{ell-1}_{d + shift}, read off two engines."""
    lo, hi = degree_range
    rows = [(d, omega.dimension(d), top.dimension(d + shift)) for d in range(lo, hi + 1)]
    return DualityReport(arrangement=A, shift=shift, rows=rows, ok=all(do == dd for _, do, dd in rows))


def calibrate_duality_shift():
    """Determine the duality twist empirically on reference arrangements.

    Returns (rule, evidence): matching shifts per example, intersected as
    offsets relative to deg Q(A, m); the surviving offset is 0, i.e.
    shift = deg Q(A, m).  Each example builds one engine per side, so
    the tables at every candidate shift compute each dimension once.
    """
    from .library import boolean

    examples = []
    empty2 = validate(QQ, [], ell=2)
    examples.append(("empty ell=2", empty2, (-2, 3)))
    examples.append(("boolean ell=2", boolean(2), (-4, 2)))
    b2 = boolean(2).with_multiplicities([2, 1])
    examples.append(("boolean ell=2 mult (2,1)", b2, (-5, 2)))
    evidence = {}
    surviving = None
    for name, A, rng in examples:
        degq = A.deg_Q()
        omega, top = pick_engine(A, "O", 1), pick_engine(A, "D", A.ell - 1)
        matches = [
            offset
            for offset in range(-degq - 3, degq + 4)
            if _duality_table(A, omega, top, rng, degq + offset).ok
        ]
        evidence[name] = matches
        s = set(matches)
        surviving = s if surviving is None else (surviving & s)
    return sorted(surviving), evidence


# ---------------------------------------------------------------------------
# Euler sequence exactness ledgers
# ---------------------------------------------------------------------------


@dataclass
class EulerLedger:
    arrangement: Arrangement
    index: int
    kind: str
    rows: list  # (d, dim smaller_{d-1}, image dim, dim bigger_d)
    exact: bool


def euler_exactness_check(A: Arrangement, i: int, kind: str, degree_range=None, *, _shared=None) -> EulerLedger:
    """Degreewise rank ledger of the deletion-restriction sequences.

    kind "D": 0 -> D(A') --alpha--> D(A) --rho--> D(A^H): checks
    dim D(A')_{d-1} + dim rho(D(A)_d) = dim D(A)_d.
    kind "O": 0 -> O(A) --alpha--> O(A') --res--> O(A^H): checks
    dim O(A)_{d-1} + dim res(O(A')_d) = dim O(A')_d.

    `_shared` is the work on A alone that `euler_ledgers` hands to every
    hyperplane's ledger.
    """
    sweep_A, engine_A = _shared or _ledger_shared(A, kind)
    res = restrict(A, i)
    A_del = A.delete(i)
    if kind == "D":
        src_gens = sweep_A
        big, small = engine_A, pick_engine(A_del, kind, 1)
        if degree_range is None:
            degree_range = (0, A.deg_Q())
    else:
        src_gens = minimal_generators(A_del, "O")
        big, small = src_gens.engine, engine_A
        if degree_range is None:
            degree_range = (-A_del.deg_Q(), 0)
    mapped = [(img.degree, tuple(img.numerators)) for img in restrict_generators(src_gens, res)]
    tgt_space = AmbientEngine(res.restricted, kind, 1).space
    rows = []
    exact = True
    lo, hi = degree_range
    for d in range(lo, hi + 1):
        dim_small = small.dimension(d - 1)
        # the source sweep is of the bigger module and has certified its
        # dimensions across its window
        dim_big = src_gens.dims.get(d)
        if dim_big is None:
            dim_big = big.dimension(d)
        # alpha-multiples always map to zero, so the image rank is at most
        # dim_big - dim_small; reaching it mod p pins the rank exactly
        image = certified_image_rank(tgt_space, mapped, d, A.field, upper=dim_big - dim_small)
        rows.append((d, dim_small, image, dim_big))
        if dim_small + image != dim_big:
            exact = False
    return EulerLedger(arrangement=A, index=i, kind=kind, rows=rows, exact=exact)


def _ledger_shared(A: Arrangement, kind: str):
    """(D(A) sweep or None, engine of A): the ledger work that does not depend on i."""
    if kind == "D":
        sweep = minimal_generators(A, "D")
        return sweep, sweep.engine
    return None, pick_engine(A, kind, 1)


def euler_ledgers(A: Arrangement, kind: str, degree_range=None) -> list:
    """`euler_exactness_check` for every hyperplane of A, in index order.

    The D(A) sweep and A's graded pieces are computed once for all
    hyperplanes; each ledger equals the one computed alone.
    """
    shared = _ledger_shared(A, kind)
    return [euler_exactness_check(A, i, kind, degree_range, _shared=shared) for i in range(A.n)]


# ---------------------------------------------------------------------------
# addition-deletion consistency
# ---------------------------------------------------------------------------


@dataclass
class AdditionDeletionReport:
    free_full: bool
    free_deletion: bool
    free_restriction: bool
    exp_full: list | None
    exp_deletion: list | None
    exp_restriction: list | None
    applicable: bool
    consistent: bool


def _pad(exps, length):
    exps = sorted(exps)
    while len(exps) < length:
        exps = [0] + exps
    return exps


def addition_deletion_check(A: Arrangement, i: int) -> AdditionDeletionReport:
    """Two-of-three freeness consistency for (A, A', A^H).

    The three numbered statements share exponents: A free with
    (d_1..d_l), A' free with (d_1..d_{l-1}, d_l - 1), A^H free with
    (d_1..d_{l-1}).  Whenever two of them hold (including their exponent
    pattern), the third must hold with the completed exponents.  Lost
    essential rank shows up as zero exponents after padding.
    """
    A_del = A.delete(i)
    A_res = restrict(A, i).restricted

    def essential_saito(B):
        if not B.is_essential():
            B, _ = B.essentialize()
        return saito_check(B)

    r_full = essential_saito(A)
    r_del = essential_saito(A_del)
    r_res = essential_saito(A_res)
    ef = _pad(r_full.exponents, A.ell) if r_full.free else None
    ed = _pad(r_del.exponents, A.ell) if r_del.free else None
    er = _pad(r_res.exponents, A.ell - 1) if r_res.free else None

    cf, cd, cr = (Counter(x or ()) for x in (ef, ed, er))
    applicable = False
    consistent = True
    if ef is not None and ed is not None:
        applicable = True
        # A' lowers one exponent e of A by one; A^H drops it
        matches = [e for e in cf if cd == cf - Counter([e]) + Counter([e - 1])]
        consistent = bool(matches) and er is not None and any(cr == cf - Counter([e]) for e in matches)
    elif ef is not None and er is not None:
        matches = [e for e in cf if cr == cf - Counter([e])]
        if matches:
            applicable = True
            consistent = ed is not None and any(cd == cf - Counter([e]) + Counter([e - 1]) for e in matches)
    elif ed is not None and er is not None:
        if (cd - cr).total() == 1:
            # the addition theorem makes A free, and here it is not
            applicable = True
            consistent = False
    return AdditionDeletionReport(
        free_full=r_full.free,
        free_deletion=r_del.free,
        free_restriction=r_res.free,
        exp_full=r_full.exponents,
        exp_deletion=r_del.exponents,
        exp_restriction=r_res.exponents,
        applicable=applicable,
        consistent=consistent,
    )


# ---------------------------------------------------------------------------
# restriction-size dichotomy for free rank-3 arrangements
# ---------------------------------------------------------------------------


def restriction_size_dichotomy(A: Arrangement):
    """For free rank-3 (1, a, b): every |A^H| is <= a+1 or == b+1.

    Returns (holds, rows) with one row (index, |A^H|) per hyperplane.
    """
    B = A
    if not B.is_essential():
        B, _ = B.essentialize()
    res = saito_check(B)
    if not res.free or B.ell != 3:
        raise ValueError("dichotomy check needs a free rank-3 arrangement")
    exps = sorted(res.exponents)
    if exps[0] != 1:
        raise ValueError("expected smallest exponent 1")
    _, a, b = exps
    rows = []
    holds = True
    for i in range(B.n):
        size = restrict(B, i).restricted.n
        ok = size <= a + 1 or size == b + 1
        rows.append((i, size, ok))
        if not ok:
            holds = False
    return holds, rows, (1, a, b)


# ---------------------------------------------------------------------------
# pole-degree bound and the plus-one extension count
# ---------------------------------------------------------------------------


def has_pole_along(A: Arrangement, cv: CoeffVector, i: int) -> bool:
    """True iff the element does not lie in the deletion's module,
    i.e. some numerator is not divisible by the hyperplane's form."""
    return not all(divisible_by_linear_power(f, A.forms[i], 1) for f in cv.numerators)


def pole_degree_check(A: Arrangement):
    """Every minimal 1-form generator with a pole along H has degree at
    least |A^H| - |A|.  Returns (holds, rows)."""
    gens = minimal_generators(A, "O", 1)
    bounds = [restrict(A, i).restricted.n - A.n for i in range(A.n)]
    rows = []
    holds = True
    for d, cv in zip(gens.degrees, gens.representatives):
        for i, bound in enumerate(bounds):
            if has_pole_along(A, cv, i):
                ok = d >= bound
                rows.append((d, i, bound, ok))
                if not ok:
                    holds = False
    return holds, rows


def plus_one_extension_count(A: Arrangement, i: int) -> int:
    """dim of the new (pole) part of the 1-forms in degree -(|A| - |A^H|).

    Under surjectivity of the top derivation restriction this count is 1:
    the module of the full arrangement is the deletion part plus a single
    new generator in that degree.
    """
    d = restrict(A, i).restricted.n - A.n
    # the forms without a pole along H are those of A with H's
    # multiplicity lowered by one; at multiplicity 1, H is deleted
    if A.mult[i] == 1:
        regular = A.delete(i)
    else:
        regular = A.with_multiplicities([m - (j == i) for j, m in enumerate(A.mult)])
    return graded_dimension(A, "O", 1, d) - graded_dimension(regular, "O", 1, d)
