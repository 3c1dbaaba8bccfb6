"""Graded restriction maps between log modules and their exactness checks.

The derivation restriction sends theta to the induced p-vector field on a
member hyperplane; the form restriction literally restricts the rational
form of the deletion to the hyperplane.  Both are degree preserving and
S-linear over the coordinate-ring surjection, so the image of a module is
the submodule generated by the images of its minimal generators; all the
degreewise image computations below exploit that.  `restrict_generators`
maps a generator set once, and `surjectivity_check` seeds the target's
sweep with those images as hints.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .arrangement import Arrangement, Restriction, restrict
from .linalg import Matrix, det, inverse
from .poly import LinearForm, Poly, Pullback, divide_by_linear
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

    Raises NotLogarithmic if theta is not in D^p(A) (skipped when the
    caller vouches with checked=True).
    """
    if theta.kind != "D":
        raise ValueError("euler_restrict_der expects a derivation-side element")
    if not checked and membership_failures(A, theta):
        raise NotLogarithmic("input is not logarithmic on the arrangement")
    if res is None:
        res = restrict(A, i)
    lam = res.lift  # ell x (ell-1); columns lift the chart coordinates
    out = _pulled_back_combinations(
        theta, res, lambda I, T: det(lam.field, [[lam.rows[r][t] for t in T] for r in I])
    )
    return CoeffVector("D", theta.order, theta.degree, tuple(out))


def restrict_form(omega: CoeffVector, A_prime: Arrangement, res: Restriction, checked: bool = False) -> CoeffVector:
    """Restriction of a logarithmic p-form on A' to a new hyperplane H.

    `res` is the Restriction of A = A' + H at H's index, so H is not in
    A'.  The image lies in Omega^p of the simple restriction; when
    collapsed multiplicities make the pulled-back form non-reducible to the
    simple denominator the map is undefined and an error is raised.
    """
    if omega.kind != "O":
        raise ValueError("restrict_form expects a form-side element")
    if not checked and membership_failures(A_prime, omega):
        raise NotLogarithmic("input is not logarithmic on the deletion")
    field = res.arrangement.field
    B = res.embedding
    # Q(A')(y B) = kappa * prod(target forms ^ ziegler multiplicity)
    inv_kappa = field.inv(res.kappa)

    def minor(I, T):
        return field.mul(inv_kappa, det(field, [[B.rows[t][i] for i in I] for t in T]))

    out = []
    for g in _pulled_back_combinations(omega, res, minor):
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


def _pulled_back_combinations(cv: CoeffVector, res: Restriction, minor) -> list:
    """For each chart subset T, the pullback of sum_I minor(I, T) * numerator_I.

    The pullback is a ring map: the numerators are combined in the
    source ring and each output coordinate is mapped once.
    """
    A = res.arrangement
    src_subs = subsets(A.ell, cv.order)
    out = []
    for T in combinations(range(A.ell - 1), cv.order):
        acc = Poly.zero(A.field, A.ell)
        for I, poly in zip(src_subs, cv.numerators):
            if poly.is_zero():
                continue
            c = minor(I, T)
            if c:
                acc = acc + poly.scale(c)
        out.append(res.pullback(acc))
    return out


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
    swept with those images as hints, which checks their membership;
    with it they are checked here.  The ledger runs from the lowest to
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

    In coordinates adapted so the chosen hyperplane is y_1 = 0, the dy_1
    numerator of the form must lie in the ideal (alpha_H, B), where B is
    the product of one chosen defining form per trace hyperplane: its
    reduction mod alpha_H must be divisible by the reduction of B.
    """
    if omega.kind != "O" or omega.order != 1:
        raise ValueError("preparation_check expects a 1-form")
    field = A.field
    ell = A.ell
    alpha = A.forms[i]
    k = alpha.pivot()
    rows = [list(alpha.coeffs)]
    for t in range(ell):
        if t != k:
            rows.append([field.one if s == t else field.zero for s in range(ell)])
    T = Matrix(field, rows)
    Tinv = inverse(T)
    pull = Pullback.linear(field, Tinv.rows)  # x = Tinv y
    G1 = Poly.zero(field, ell)
    for kk in range(ell):
        c = Tinv.rows[kk][0]
        if c and not omega.numerators[kk].is_zero():
            G1 = G1 + omega.numerators[kk].scale(c)
    G1 = pull(G1)
    # reduce mod y_1 by dropping terms with positive first exponent
    g = Poly(field, ell, {m: c for m, c in G1.terms.items() if m[0] == 0})
    res = restrict(A, i)
    for cls in range(res.restricted.n):
        rep = next(j for j in range(A.n) if j != i and res.image_info[j][0] == cls)
        bar = pull(A.forms[rep].as_poly())
        bar = Poly(field, ell, {m: c for m, c in bar.terms.items() if m[0] == 0})
        coeffs = [field.zero] * ell
        for m, c in bar.terms.items():
            coeffs[[t for t, e in enumerate(m) if e][0]] = c
        q, r = divide_by_linear(g, LinearForm(field, coeffs))
        if not r.is_zero():
            return False
        g = q
    return True
