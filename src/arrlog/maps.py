"""Graded restriction maps between log modules and their exactness checks.

The derivation restriction sends theta to the induced p-vector field on a
member hyperplane; the form restriction literally restricts the rational
form of the deletion to the hyperplane.  Both are degree preserving and
S-linear over the coordinate-ring surjection, so the image of a module is
the submodule generated by the images of its minimal generators; all the
degreewise image computations below exploit that.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .arrangement import Arrangement, Restriction, restrict
from .linalg import Matrix, det
from .poly import LinearForm, Poly, divide_by_linear
from .solver import (
    AmbientEngine,
    CoeffVector,
    NotLogarithmic,
    SolverError,
    TwistSpace,
    _certified_eval_rank,
    _invert,
    graded_basis,
    membership_failures,
    minimal_generators,
    subsets,
)


def _substitution_images(B: Matrix):
    """images[k] = the restriction of x_k to the hyperplane, in chart coords."""
    f = B.field
    tgt_ell = B.nrows
    return [
        Poly(
            f,
            tgt_ell,
            {
                tuple(1 if t == s else 0 for s in range(tgt_ell)): B.rows[t][k]
                for t in range(tgt_ell)
                if B.rows[t][k]
            },
        )
        for k in range(B.ncols)
    ]


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
    ell = A.ell
    p = theta.order
    images = _substitution_images(res.embedding)
    lam = res.lift  # ell x (ell-1); columns lift the chart coordinates
    src_subs = subsets(ell, p)
    out = []
    for T in combinations(range(ell - 1), p):
        acc = Poly.zero(A.field, ell - 1)
        for idx, I in enumerate(src_subs):
            poly = theta.numerators[idx]
            if poly.is_zero():
                continue
            c = det(lam.field, [[lam.rows[i][j] for j in T] for i in I])
            if c:
                acc = acc + poly.substitute(images).scale(c)
        out.append(acc)
    return CoeffVector("D", p, theta.degree, tuple(out))


def restrict_form(
    omega: CoeffVector,
    A_prime: Arrangement,
    h: LinearForm | None = None,
    res: Restriction | None = None,
    checked: bool = False,
) -> CoeffVector:
    """Restriction of a logarithmic p-form on A' to a new hyperplane H.

    Either pass the new hyperplane form `h` (H must not belong to A'), or
    a precomputed Restriction of A' + H at H's index.  The image lies in
    Omega^p of the simple restriction; when collapsed multiplicities make
    the pulled-back form non-reducible to the simple denominator the map
    is undefined and an error is raised.
    """
    if omega.kind != "O":
        raise ValueError("restrict_form expects a form-side element")
    if not checked and membership_failures(A_prime, omega):
        raise NotLogarithmic("input is not logarithmic on the deletion")
    if res is None:
        if h is None:
            raise ValueError("need the new hyperplane or a Restriction")
        A = A_prime.add_hyperplane(h)
        res = restrict(A, A.n - 1)
    A = res.arrangement
    field = A.field
    ell = A.ell
    p = omega.order
    target = res.restricted
    images = _substitution_images(res.embedding)
    B = res.embedding
    src_subs = subsets(ell, p)
    out = []
    inv_kappa = field.inv(res.kappa)
    for T in combinations(range(ell - 1), p):
        acc = Poly.zero(field, ell - 1)
        for idx, I in enumerate(src_subs):
            poly = omega.numerators[idx]
            if poly.is_zero():
                continue
            c = det(B.field, [[B.rows[t][i] for i in I] for t in T])
            if c:
                acc = acc + poly.substitute(images).scale(c)
        # Q(A')(y B) = kappa * prod(target forms ^ ziegler multiplicity)
        g = acc.scale(inv_kappa)
        for form, zm in zip(target.forms, res.ziegler_mult):
            for _ in range(zm - 1):
                q, r = divide_by_linear(g, form)
                if not r.is_zero():
                    raise NotLogarithmic(
                        "restricted form does not reduce to the simple restriction"
                    )
                g = q
        out.append(g)
    return CoeffVector("O", p, omega.degree, tuple(out))


def certified_image_rank(tgt_space: TwistSpace, gens, d: int, field, upper=None) -> int:
    """Exact rank at degree d of the eval map of verified target elements.

    When `upper` (the ambient piece dimension) is supplied and the rank
    mod the first usable prime reaches it, or that rank is the number of
    columns, the rank is pinned with no kernel: mod-p ranks bound the
    rational rank from below, membership bounds it above.  Otherwise the exact kernel of the eval map is
    exhibited (`solver._certified_eval_rank`).
    """
    return _certified_eval_rank(tgt_space, gens, d, field, upper)[0]


@dataclass
class SurjectivityReport:
    arrangement: Arrangement
    index: int
    kind: str
    order: int
    degree_range: tuple
    rows: list  # (degree, dim target piece, dim image piece)
    target_generator_degrees: list
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
    order: int = 1,
    source_generators=None,
    target_generators=None,
) -> SurjectivityReport:
    """Degreewise surjectivity ledger for the restriction maps.

    kind "D": Euler restriction D^p(A) -> D^p(A^H).
    kind "O": form restriction Omega^p(A') -> Omega^p(A^H), A' = A less H.

    The image piece at degree d is the degree-d part of the submodule
    generated by the images of the source's minimal generators (the maps
    are module homomorphisms).  The ledger runs from the lowest to the
    highest generator degree of the target, so the verdict is
    module-exact.
    """
    res = restrict(A, i)
    target = res.restricted
    source_arr = A if kind == "D" else A.delete(i)
    tgt_gens = (
        target_generators
        if target_generators is not None
        else minimal_generators(target, kind, order)
    )
    gen_degrees = sorted(tgt_gens.degrees)
    src_gens = (
        source_generators
        if source_generators is not None
        else minimal_generators(source_arr, kind, order)
    )
    mapped = []
    for d, cv in zip(src_gens.degrees, src_gens.representatives):
        img = (
            euler_restrict_der(cv, A, i, res, checked=True)
            if kind == "D"
            else restrict_form(cv, source_arr, res=res, checked=True)
        )
        if img.is_zero():
            continue
        if membership_failures(target, img):
            raise SolverError("restricted generator failed the target membership check")
        mapped.append((d, tuple(img.numerators)))
    lo, hi = (gen_degrees[0], gen_degrees[-1]) if gen_degrees else (0, 0)
    tgt_space = AmbientEngine(target, kind, order).space
    rows = []
    surjective = True
    witness = None
    for d in range(lo, hi + 1):
        tdim = tgt_gens.dims.get(d)
        if tdim is None:
            tdim = graded_basis(target, kind, order, d).dimension
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
        order=order,
        degree_range=(lo, hi),
        rows=rows,
        target_generator_degrees=gen_degrees,
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
    Tinv = _invert(T)
    images = [
        Poly(
            field,
            ell,
            {
                tuple(1 if s == t else 0 for s in range(ell)): Tinv.rows[kk][t]
                for t in range(ell)
                if Tinv.rows[kk][t]
            },
        )
        for kk in range(ell)
    ]
    G1 = Poly.zero(field, ell)
    for kk in range(ell):
        c = Tinv.rows[kk][0]
        if c and not omega.numerators[kk].is_zero():
            G1 = G1 + omega.numerators[kk].substitute(images).scale(c)
    # reduce mod y_1 by dropping terms with positive first exponent
    g = Poly(field, ell, {m: c for m, c in G1.terms.items() if m[0] == 0})
    res = restrict(A, i)
    for cls in range(res.restricted.n):
        rep = next(j for j in range(A.n) if j != i and res.image_info[j][0] == cls)
        bar = A.forms[rep].as_poly().substitute(images)
        bar = Poly(field, ell, {m: c for m, c in bar.terms.items() if m[0] == 0})
        coeffs = [field.zero] * ell
        for m, c in bar.terms.items():
            coeffs[[t for t, e in enumerate(m) if e][0]] = c
        q, r = divide_by_linear(g, LinearForm(field, coeffs))
        if not r.is_zero():
            return False
        g = q
    return True
