"""Graded restriction maps between log modules and their exactness checks.

The derivation restriction sends theta to the induced p-vector field on a
member hyperplane; the form restriction literally restricts the rational
form of the deletion to the hyperplane.  Both are degree preserving and
S-linear over the coordinate-ring surjection, so the image of a module is
the submodule generated by the images of its minimal generators; all the
degreewise image computations below exploit that.  `restrict_generators`
maps a generator set once, and `surjectivity_check` seeds the target's
sweep with those images as hints, which that sweep reads in the
coordinates of whatever engine it picks.

Everything here reads one chart on H, the `pullback` of `restrict`'s
Restriction: both maps and the pole-coefficient test
`preparation_check`, whose divisibility is `poly.divisible_by_linear_power`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .arrangement import Arrangement, Restriction, restrict
from .linalg import det
from .poly import Poly, divide_by_linear, divisible_by_linear_power
from .solver import (
    AmbientEngine,
    CoeffVector,
    GeneratorSet,
    NotLogarithmic,
    SolverError,
    TwistSpace,
    _certified_eval_rank,
    graded_dimension,
    membership_failures,
    minimal_generators,
    subsets,
)


def euler_restrict_der(
    theta: CoeffVector,
    A: Arrangement,
    i: int,
    res: Restriction | None = None,
    checked: bool = False,
) -> CoeffVector:
    """Image of a logarithmic p-vector field under the Euler restriction.

    The chart of `res` keeps the coordinates other than the pivot of
    alpha_H, so component T of the image is the restriction of the
    numerator at those coordinates in positions T.  Raises NotLogarithmic
    if theta is not in D^p(A) (skipped when the caller vouches with
    checked=True).
    """
    if theta.kind != "D":
        raise ValueError("euler_restrict_der expects a derivation-side element")
    if not checked and membership_failures(A, theta):
        raise NotLogarithmic("input is not logarithmic on the arrangement")
    if res is None:
        res = restrict(A, i)
    k = A.forms[i].pivot()
    coords = [t for t in range(A.ell) if t != k]
    numerator = dict(zip(subsets(A.ell, theta.order), theta.numerators))
    out = tuple(
        res.pullback(numerator[tuple(coords[t] for t in T)])
        for T in combinations(range(A.ell - 1), theta.order)
    )
    return CoeffVector("D", theta.order, theta.degree, out)


def restrict_form(omega: CoeffVector, A_prime: Arrangement, res: Restriction, checked: bool = False) -> CoeffVector:
    """Restriction of a logarithmic p-form on A' to a new hyperplane H.

    `res` is the Restriction of A = A' + H at H's index, so H is not in
    A'.  Component T is the pullback of sum_I minor(I, T) * numerator_I
    over kappa, the minors taken from the embedding; the numerators are
    combined in the source ring, so each component is mapped once.  The
    image lies in Omega^p of the simple restriction; when collapsed
    multiplicities make the pulled-back form non-reducible to the simple
    denominator the map is undefined and an error is raised.
    """
    if omega.kind != "O":
        raise ValueError("restrict_form expects a form-side element")
    if not checked and membership_failures(A_prime, omega):
        raise NotLogarithmic("input is not logarithmic on the deletion")
    A = res.arrangement
    field = A.field
    B = res.embedding
    # Q(A')(y B) = kappa * prod(target forms ^ ziegler multiplicity)
    inv_kappa = field.inv(res.kappa)
    src_subs = subsets(A.ell, omega.order)
    out = []
    for T in combinations(range(A.ell - 1), omega.order):
        acc = Poly.zero(field, A.ell)
        for I, poly in zip(src_subs, omega.numerators):
            if poly.is_zero():
                continue
            c = field.mul(inv_kappa, det(field, [[B.rows[t][i] for i in I] for t in T]))
            if c:
                acc = acc + poly.scale(c)
        g = res.pullback(acc)
        for form, zm in zip(res.restricted.forms, res.ziegler_mult):
            for _ in range(zm - 1):
                q, r = divide_by_linear(g, form)
                if not r.is_zero():
                    raise NotLogarithmic(
                        "restricted form does not reduce to the simple restriction"
                    )
                g = q
        out.append(g)
    return CoeffVector("O", omega.order, omega.degree, tuple(out))


def restrict_generators(gens: GeneratorSet, res: Restriction) -> list:
    """The nonzero images of a generator set's representatives through `res`.

    Kind "D" generators of D^p(A) go through the Euler restriction, kind
    "O" generators of Omega^p(A - H) through the form restriction; A and
    H are `res.arrangement` and its hyperplane `res.index`.  Every image
    shares the pullback cache of `res`.
    """
    A, i = res.arrangement, res.index
    images = [
        euler_restrict_der(cv, A, i, res, checked=True)
        if gens.kind == "D"
        else restrict_form(cv, gens.arrangement, res, checked=True)
        for cv in gens.representatives
    ]
    return [img for img in images if not img.is_zero()]


def certified_image_rank(tgt_space: TwistSpace, gens, d: int, field, upper: int) -> int:
    """Exact rank at degree d of the eval map of verified target elements.

    `upper` is an upper bound on the rank that the caller knows (the
    target piece dimension, or less).  When the rank mod the first usable
    prime reaches it, or that rank is the number of columns, the rank is
    pinned with no kernel: mod-p ranks bound the rational rank from below,
    membership bounds it above.  Otherwise the exact kernel of the eval
    map is exhibited (`solver._certified_eval_rank`).
    """
    return _certified_eval_rank(tgt_space, gens, d, field, upper)


@dataclass
class SurjectivityReport:
    arrangement: Arrangement
    index: int
    kind: str
    degree_range: tuple
    rows: list  # (degree, dim target piece, dim image piece)
    target_generators: GeneratorSet
    surjective: bool
    witness_degree: int | None
    mapped_generator_degrees: list

    def ledger(self):
        return [
            {"degree": d, "target_dim": td, "image_dim": im} for d, td, im in self.rows
        ]


def surjectivity_check(
    A: Arrangement,
    i: int,
    kind: str = "O",
    source_generators=None,
    target_generators=None,
) -> SurjectivityReport:
    """Degreewise surjectivity ledger for the restriction maps on 1-forms
    and derivations.

    kind "D": Euler restriction D(A) -> D(A^H).
    kind "O": form restriction Omega^1(A') -> Omega^1(A^H), A' = A less H.

    The image piece at degree d is the degree-d part of the submodule
    generated by the images of the source's minimal generators (the maps
    are module homomorphisms).  Without `target_generators` the target is
    swept on its own engine with those images as hints, which checks
    their membership; with it they are checked here.  The ledger runs from the lowest to
    the highest generator degree of the target, so the verdict is
    module-exact.
    """
    res = restrict(A, i)
    target = res.restricted
    src_gens = (
        source_generators
        if source_generators is not None
        else minimal_generators(A if kind == "D" else A.delete(i), kind)
    )
    images = restrict_generators(src_gens, res)
    del res  # with its cached monomial images, which the target sweep does not need
    if target_generators is None:
        # the sweep checks each image once, as a hint
        tgt_gens = minimal_generators(target, kind, hints=images)
    else:
        for img in images:
            if membership_failures(target, img):
                raise SolverError("restricted generator failed the target membership check")
        tgt_gens = target_generators
    gen_degrees = sorted(tgt_gens.degrees)
    mapped = [(img.degree, tuple(img.numerators)) for img in images]
    lo, hi = (gen_degrees[0], gen_degrees[-1]) if gen_degrees else (0, 0)
    tgt_space = AmbientEngine(target, kind, 1).space
    rows = []
    surjective = True
    witness = None
    for d in range(lo, hi + 1):
        tdim = tgt_gens.dims.get(d)
        if tdim is None:
            tdim = graded_dimension(target, kind, 1, d)
        idim = certified_image_rank(tgt_space, mapped, d, A.field, upper=tdim)
        rows.append((d, tdim, idim))
        if idim < tdim:
            surjective = False
            if witness is None:
                witness = d
    return SurjectivityReport(
        arrangement=A,
        index=i,
        kind=kind,
        degree_range=(lo, hi),
        rows=rows,
        target_generators=tgt_gens,
        surjective=surjective,
        witness_degree=witness,
        mapped_generator_degrees=[d for d, _ in mapped],
    )


def preparation_check(omega: CoeffVector, A: Arrangement, i: int) -> bool:
    """Pole-coefficient membership test for logarithmic 1-forms.

    In coordinates where alpha_H is the first one, the numerator of its
    differential is the dx_k numerator over a_k, k the pivot of alpha_H.
    It must lie in the ideal (alpha_H, B), B the product of one defining
    form per trace hyperplane: the traces are pairwise independent, so
    the test is that each form of `res.restricted` divides the
    restriction of the dx_k numerator to H.
    """
    if omega.kind != "O" or omega.order != 1:
        raise ValueError("preparation_check expects a 1-form")
    res = restrict(A, i)
    traces = res.restricted.forms
    if not traces:  # B = 1, and at ell = 1 the chart has no coordinates
        return True
    g = res.pullback(omega.numerators[A.forms[i].pivot()])
    return all(divisible_by_linear_power(g, form, 1) for form in traces)
