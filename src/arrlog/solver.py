"""Degreewise exact computation of logarithmic derivation and form modules.

Graded pieces are kernels of divisibility constraints on coefficient
vectors over a free base.  One engine produces them: unknowns are the
coefficients of an element over the base's module basis, and only the
hyperplanes outside the base (its complement) contribute constraints.

  * ambient: the base of the empty arrangement, the unit p-vectors or
    p-forms with exponents 0, so the unknowns are the numerator tuples
    themselves and every hyperplane is in the complement; valid for any
    (A, m, p);
  * relative: for simple essential arrangements with p = 1, the free
    basis attached to a maximal independent subset of the forms, or a
    Saito-certified free arrangement whose hyperplanes all lie in A.
    This collapses the solve sizes; the two bases must agree and are
    cross-checked in the tests.  Over its own Saito base a free
    arrangement has no complement, so the sweep there certifies its
    free module of 1-forms.

The engine conditions on `condition_terms`, and it is the family of its
module's pieces: `space`, `field`, `build_mod`, `verify` and
`known_rank`, plus the remembered `dimension(d)`.  The relation pieces
of a list of generators (`EvalKernelFamily`) read the same protocol, so
one degree step of `sweep_minimal_generators` serves every family on
both fields, and one routine, `_certified_eval_rank`, certifies the rank
of every evaluation map.  With nothing below a degree every kernel
vector is a new generator, so a graded basis (`graded_basis`) is a
one-degree sweep, and so is a dimension over Q; over F_p a dimension is
one rank at the field's prime.  That is the one place where the fields
part ways for a dimension, and `_primes` is where the primes are chosen.
Over F_p the modular elimination is the field arithmetic, so every rank
and kernel mod the field's prime is exact and is taken once.  Over Q,
kernels are computed mod deterministic ladder primes, lifted by CRT +
rational reconstruction, and then certified: exhibited elements are
verified exactly at the polynomial level, and mod-p ranks bound the
ranks over Q from below, which pins every reported dimension exactly.
A degree step takes the row pivots P of the eval matrix of the
generators below it first, read off the matrix's nonzero entries
(`sparse_pivots_mod`), and builds the constraint matrix only on the
columns off P (`build_mod(d, p, cols)`): the eval image projects onto P
isomorphically and lies in the kernel, so at most degrees a full column
rank there certifies the piece.  At a generator degree every vector of
the kernel on those columns is a new generator: over F_p it is the
kernel the rank was read from, and over Q the same matrix is lifted and
verified (`kernel_qq_candidates`, the one certified kernel search over
Q), so a step with one new generator in a kernel of hundreds lifts
that vector alone, from as few primes as its own height needs.  An eval
rank that its lower bound mod p does not pin is certified by the same
search on the eval matrix.  Hints complete the eval image through one
check (`_completing_columns`), on any engine: a hint's numerators are
read in the engine's coordinates through its base's dual basis
(`element_from_cv`).  Saito's criterion (`_SaitoBasis`) ends
every order-1 sweep at a basis, and `saito_check` reads its verdict.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from .arrangement import Arrangement, ArrangementError, canonicalize_form
from .fields import GF, Rationals
from .linalg import Echelon, Matrix, inverse
from .modular import (
    PRIMES,
    _addmul,
    kernel_mod,
    kernel_qq_candidates,
    rank_mod,
    rref_mod,
    sparse_pivots_mod,
)
from .divisibility import divisibility_table_mod, monomial_exponents, monomial_rank, product_pattern, quotient_dim
from .poly import (
    LinearForm,
    Poly,
    Pullback,
    dim_homogeneous,
    divide_by_linear,
    divisible_by_linear_power,
    monomial_basis,
    monomial_index,
    poly_det,
    product,
    sum_of_products,
)


class SolverError(ArrangementError):
    pass


class NotLogarithmic(SolverError):
    pass


# ---------------------------------------------------------------------------
# coefficient vectors and membership checks
# ---------------------------------------------------------------------------


def subsets(ell: int, p: int):
    return tuple(combinations(range(ell), p))


@dataclass(frozen=True)
class CoeffVector:
    """Numerator tuple of a module element.

    kind "D": numerators are the coefficient polynomials of a p-vector
    field, homogeneous of degree `degree`.
    kind "O": numerators of a p-form over Q(A, m), homogeneous of degree
    `degree` + deg Q(A, m).  Indexing follows combinations(range(ell), p).
    """

    kind: str
    order: int
    degree: int
    numerators: tuple

    @property
    def ell(self):
        return self.numerators[0].ell

    def numerator_degree(self):
        for f in self.numerators:
            if not f.is_zero():
                return f.homogeneous_degree()
        return None

    def is_zero(self):
        return all(f.is_zero() for f in self.numerators)


def condition_terms(kind: str, order: int, alpha: LinearForm):
    """The logarithmic conditions along one hyperplane, one list per condition.

    Each condition is a list of (subset index, coefficient): alpha^m must
    divide sum c * numerators[index].  Zero coefficients are left out, so
    a condition may be empty; it still stands for its (zero) block of
    constraint rows.
    """
    ell = alpha.ell
    a = alpha.coeffs
    neg = alpha.field.neg
    index = {s: i for i, s in enumerate(subsets(ell, order))}
    conds = []
    if kind == "D":
        # Lambda^0 Der = S carries no conditions
        for J in combinations(range(ell), order - 1) if order else ():
            terms = []
            for i in range(ell):
                if i in J:
                    continue
                I = tuple(sorted((i,) + J))
                terms.append((index[I], a[i] if I.index(i) % 2 == 0 else neg(a[i])))
            conds.append(terms)
    elif order == 1:
        # F parallel to a mod alpha: the ell-1 pairs against the pivot
        # coordinate already have full rank among the wedge conditions
        k0 = alpha.pivot()
        conds = [[(j, a[k0]), (k0, neg(a[j]))] for j in range(ell) if j != k0]
    else:
        for K in combinations(range(ell), order + 1):
            conds.append(
                [(index[K[:t] + K[t + 1 :]], a[k] if t % 2 == 0 else neg(a[k])) for t, k in enumerate(K)]
            )
    return [[(b, c) for b, c in terms if c] for terms in conds]


def _condition_poly(numerators, terms) -> Poly:
    """sum c * numerators[b] over the (b, c) terms of one condition."""
    polys = [numerators[b].scale(c) for b, c in terms]
    if not polys:
        return Poly.zero(numerators[0].field, numerators[0].ell)
    return sum(polys[1:], polys[0])


def condition_polys(cv: CoeffVector, alpha: LinearForm):
    """The per-hyperplane polynomials that must be divisible by alpha^m."""
    return [_condition_poly(cv.numerators, terms) for terms in condition_terms(cv.kind, cv.order, alpha) if terms]


def membership_failures(A: Arrangement, cv: CoeffVector, hyperplanes=None):
    """Exact logarithmic-condition check; returns offending indices."""
    bad = []
    indices = range(A.n) if hyperplanes is None else hyperplanes
    for h in indices:
        alpha = A.forms[h]
        m = A.mult[h]
        for P in condition_polys(cv, alpha):
            if not divisible_by_linear_power(P, alpha, m):
                bad.append(h)
                break
    return bad


def is_logarithmic(A: Arrangement, cv: CoeffVector) -> bool:
    return not membership_failures(A, cv)


# ---------------------------------------------------------------------------
# graded coordinate spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwistSpace:
    """Direct sum of twisted polynomial blocks.

    Block j at module degree d holds a homogeneous polynomial of degree
    d - twists[j]; flattened coordinates concatenate the dense
    coefficient vectors in monomial_basis order.
    """

    ell: int
    twists: tuple

    def block_degrees(self, d: int):
        return [d - e for e in self.twists]

    def dim(self, d: int) -> int:
        return sum(dim_homogeneous(self.ell, deg) for deg in self.block_degrees(d))

    def element_from_coords(self, field, d: int, coords):
        blocks = []
        pos = 0
        for deg in self.block_degrees(d):
            k = dim_homogeneous(self.ell, deg)
            if deg >= 0:
                blocks.append(Poly.from_vector(field, self.ell, deg, coords[pos : pos + k]))
            else:
                blocks.append(Poly.zero(field, self.ell))
            pos += k
        return tuple(blocks)


def _coeff_mod(c, p: int) -> int:
    if isinstance(c, Fraction):
        den = c.denominator % p
        if den == 0:
            raise ZeroDivisionError("denominator divisible by prime")
        return c.numerator % p * pow(den, p - 2, p) % p
    return int(c) % p


@lru_cache(maxsize=None)
def shift_table(ell: int, d_src: int, mono: tuple) -> np.ndarray:
    """Index map: position of basis(d_src)[i] * mono inside basis(d_src+|mono|)."""
    return monomial_rank(monomial_exponents(ell, d_src) + np.array(mono, dtype=np.int64))


# ---------------------------------------------------------------------------
# constraint engines
# ---------------------------------------------------------------------------


class _Engine:
    """The graded pieces of one module, in coordinates over a free base.

    The base is a free arrangement's module basis (`_basis`, exponents
    e_i) inside A; the hyperplanes of A outside it are the complement.
    Block i of an element is the coefficient polynomial of `_basis[i]`:

      kind "D": theta = sum g_i theta0_i, twists e_i;
      kind "O": (prod of the complement's forms, with multiplicity) *
      omega = sum g_i eta_i, twists -(complement degree + e_i).

    The base's own conditions hold for any coefficients, so the piece at
    degree d is the kernel of the divisibility constraints of the
    complement hyperplanes only (`build_mod`), and `verify` checks an
    element exactly on them.  Each base hyperplane is found in A by its
    canonical form and multiplicity, and one that A lacks raises
    SolverError; the others, in A's order, are the complement.  The
    base's other side (`_dual`) reads a member's numerators in these
    coordinates (`element_from_cv`).  The empty arrangement's base, the
    unit p-vectors or p-forms with exponents 0, gives the ambient engine.
    Dimensions are remembered per degree, so one engine answers repeated
    questions about its module without eliminating again.
    """

    def __init__(self, A: Arrangement, kind: str, order: int, base: FreeBase):
        if kind not in ("D", "O"):
            raise ValueError("kind must be 'D' or 'O'")
        self.A = A
        self.kind = kind
        self.order = order
        self.field = A.field
        index = {(canonicalize_form(f), m): i for i, (f, m) in enumerate(zip(A.forms, A.mult))}
        in_base = set()
        for f, m in zip(base.arrangement.forms, base.arrangement.mult):
            i = index.get((canonicalize_form(f), m))
            if i is None:
                raise SolverError(f"base hyperplane {f} (multiplicity {m}) is not in the arrangement")
            in_base.add(i)
        self.complement = [i for i in range(A.n) if i not in in_base]
        # the linear factors of Q(base), each as often as its multiplicity
        self._q_base = [f for f, m in zip(base.arrangement.forms, base.arrangement.mult) for _ in range(m)]
        if kind == "D":
            self._basis, self._dual = list(base.d_basis), list(base.omega_numerators)
            self.space = TwistSpace(A.ell, tuple(base.exponents))
        else:
            self._basis = [CoeffVector("O", order, -e, nums) for e, nums in zip(base.exponents, base.omega_numerators)]
            self._dual = [cv.numerators for cv in base.d_basis]
            degree = sum(A.mult[h] for h in self.complement)
            self.space = TwistSpace(A.ell, tuple(-(degree + e) for e in base.exponents))
        self._images = base._images
        self._dims = {}

    def known_rank(self, d: int):
        """Rank over the field of the matrix at degree d if known without elimination."""
        return None

    def numerator_degree(self, d: int) -> int:
        return d if self.kind == "D" else d + self.A.deg_Q()

    def _numerators(self, p: int):
        """The base elements' numerators mod p as dense columns, one group per degree.

        A list of (D, blocks, C): numerator b of base element blocks[j],
        of degree D, is column j * binom(ell, order) + b of C, a
        dim S_D x width int64 matrix.  Kept in `_images` per (kind,
        order, p), so the engines over one base share it.
        """
        key = (self.kind, self.order, p)
        found = self._images.get(key)
        if found is None:
            by_degree = {}
            for i, cv in enumerate(self._basis):
                D = cv.numerator_degree()
                if D is not None:
                    by_degree.setdefault(D, []).append(i)
            found = []
            nnum = comb(self.A.ell, self.order)
            for D, blocks in sorted(by_degree.items()):
                C = np.zeros((dim_homogeneous(self.A.ell, D), len(blocks) * nnum), dtype=np.int64)
                for j, i in enumerate(blocks):
                    for b, f in enumerate(self._basis[i].numerators):
                        if f.terms:
                            at = monomial_rank(np.array(list(f.terms), dtype=np.int64))
                            C[at, j * nnum + b] = [_coeff_mod(c, p) for c in f.terms.values()]
                found.append((D, blocks, C))
            self._images[key] = found
        return found

    def _reduced_carriers(self, h: int, p: int):
        """(alpha, nconds, images): hyperplane h's carriers reduced mod alpha^m at p.

        alpha is h's form mod p.  The carrier of condition ci on block i
        is the condition's combination of base element i's numerators
        (`condition_terms`), and reduction mod alpha^m is linear, so the
        numerators of one degree D are reduced by one table and one
        product, and combined by a second.  images[D] holds the images in
        S/(alpha^m), at D, of the carriers on the blocks of the `_numerators`
        group of degree D: row j * nconds + ci is condition ci's carrier
        on the group's block j.  Kept in `_images` per (kind, order,
        form, m, p).
        """
        form, m = self.A.forms[h], self.A.mult[h]
        key = (self.kind, self.order, form.coeffs, m, p)
        found = self._images.get(key)
        if found is None:
            alpha = _form_mod(form, p)
            conds = condition_terms(self.kind, self.order, form)
            nnum = comb(self.A.ell, self.order)
            W = np.zeros((len(conds), nnum), dtype=np.int64)
            for ci, terms in enumerate(conds):
                for b, c in terms:
                    W[ci, b] = _coeff_mod(c, p)
            images = {}
            for D, blocks, C in self._numerators(p) if conds else ():
                table = divisibility_table_mod(alpha, m, D)
                R = table.shape[0]
                numerators = np.zeros((R, C.shape[1]), dtype=np.int64)
                _addmul(numerators, table, C, p)
                carriers = np.zeros((len(conds), len(blocks) * R), dtype=np.int64)
                _addmul(carriers, W, numerators.reshape(R, len(blocks), nnum).transpose(2, 1, 0).reshape(nnum, -1), p)
                images[D] = carriers.reshape(len(conds), len(blocks), R).transpose(1, 0, 2).reshape(-1, R)
            found = self._images[key] = (alpha, len(conds), images)
        return found

    def build_mod(self, d: int, p: int, cols=None) -> np.ndarray:
        """Constraint matrix mod p of the piece at degree d, on the columns `cols`.

        The rows of hyperplane h are, per condition, the table of alpha^m
        at the numerator degree N applied to sum_i carrier_i * g_i.  The
        table is the ring map S -> S/(alpha^m), so block i is the
        multiplication by the reduced carrier (`_reduced_carriers`) from
        the quotient at the block degree to the quotient at N
        (`product_pattern`), times the table at the block degree.  The
        blocks whose carriers have one degree D share the block degree
        N - D, so each hyperplane takes one table and one exact product
        per D, on the columns that any of those blocks keeps.  A degree-0
        carrier, as in the ambient engine, scales the table.
        """
        ell = self.A.ell
        block_degs = self.space.block_degrees(d)
        ncols = self.space.dim(d) if cols is None else len(cols)
        if all(bd < 0 for bd in block_degs):
            return np.zeros((0, ncols), dtype=np.int64)
        N = self.numerator_degree(d)
        block_cols = _block_columns([dim_homogeneous(ell, bd) for bd in block_degs], cols)
        groups = []
        for D, blocks, _ in self._numerators(p):
            if N - D < 0:
                continue
            if cols is None:
                U, at = slice(None), [slice(None)] * len(blocks)
            else:
                U = np.unique(np.concatenate([block_cols[i][0] for i in blocks]))
                at = [np.searchsorted(U, block_cols[i][0]) for i in blocks]
            groups.append((D, blocks, U, at))
        rational = isinstance(self.field, Rationals)
        stacked = []
        for h in self.complement:
            m = self.A.mult[h]
            alpha, nconds, images = self._reduced_carriers(h, p)
            nrows = quotient_dim(ell, m, N)
            M = np.zeros((nconds * nrows, ncols), dtype=np.int64)
            # at ell = 1 the quotient S/(alpha^m) is 0 from degree m on
            for D, blocks, U, at in groups if nconds * nrows else ():
                bd = N - D
                if D == 0:
                    table = divisibility_table_mod(alpha, m, bd)
                    scale = images[D].reshape(len(blocks), nconds, 1, 1)
                    for j, i in enumerate(blocks):
                        local, out = block_cols[i]
                        M[:, out] = (scale[j] * table[:, local] % p).reshape(nconds * nrows, -1)
                    continue
                # over F_p every build is at the field's prime, and the
                # deletions of an arrangement, which share its base, build
                # the same small products again: those are kept on all
                # columns; over Q each ladder prime is a new key
                shared = not rational and len(blocks) * nconds * nrows * dim_homogeneous(ell, bd) <= _SHARED_CELLS
                key = (self.kind, self.order, self.A.forms[h].coeffs, m, p, D, bd)
                P = self._images.get(key) if shared else None
                if P is None:
                    table = divisibility_table_mod(alpha, m, bd)
                    R, c, cells, value_of = product_pattern(ell, m, bd, D)
                    X = np.zeros((len(blocks) * nconds, R * c), dtype=np.int64)
                    X[:, cells] = images[D][:, value_of]
                    Y = table if shared else table[:, U]
                    P = np.zeros((len(X) * R, Y.shape[1]), dtype=np.int64)
                    _addmul(P, X.reshape(-1, c), Y, p)
                    if shared:
                        self._images[key] = P
                for j, i in enumerate(blocks):
                    local, out = block_cols[i]
                    M[:, out] = P[j * nconds * nrows : (j + 1) * nconds * nrows, local if shared else at[j]]
            stacked.append(M)
        if not stacked:
            return np.zeros((0, ncols), dtype=np.int64)
        return np.vstack(stacked)

    def to_coeffvector(self, element, d: int) -> CoeffVector:
        ell = self.A.ell
        numerators = tuple(
            sum_of_products(self.field, ell, ((element[i], b.numerators[k]) for i, b in enumerate(self._basis)))
            for k in range(comb(ell, self.order))
        )
        return CoeffVector(self.kind, self.order, d, numerators)

    def element_from_cv(self, cv: CoeffVector):
        """The coordinates of a member given by its numerators F.

        The base's two sides pair to delta_ij Q(base) (Saito's criterion),
        so coordinate j is <F, dual_j> / Q(base), where dual_j is the
        base's other side: its 1-form numerators for kind "D", its
        derivations for kind "O".  The division is exact exactly when F
        lies in the base's module; a remainder raises SolverError.  The
        unit base is its own dual and Q(base) = 1.
        """
        if cv.kind != self.kind or cv.order != self.order:
            raise SolverError("hint does not match the module selector")
        element = []
        for dual in self._dual:
            g = sum_of_products(self.field, self.A.ell, zip(cv.numerators, dual))
            for alpha in self._q_base:
                g, r = divide_by_linear(g, alpha)
                if not r.is_zero():
                    raise SolverError(f"hint of degree {cv.degree} is not a member of the module")
            element.append(g)
        return tuple(element)

    def verify(self, element, d: int) -> bool:
        # the base's conditions hold identically; check the complement
        cv = self.to_coeffvector(element, d)
        return not membership_failures(self.A, cv, hyperplanes=self.complement)

    def dimension(self, d: int) -> int:
        """Exact dimension of the piece at degree d, remembered.

        With nothing below d every kernel vector is a new generator, so
        over Q it is the dimension a one-degree sweep certifies.  Over F_p
        the rank at the field's prime is exact: one build, one pivots-only
        elimination.
        """
        n = self._dims.get(d)
        if n is None:
            if isinstance(self.field, Rationals):
                n = sweep_minimal_generators(self, (d, d)).dims[d]
            else:
                ncols, p = self.space.dim(d), self.field.p
                n = ncols - rank_mod(self.build_mod(d, p), p) if ncols else 0
            self._dims[d] = n
        return n


class AmbientEngine(_Engine):
    """The engine over the unit base: unknowns are the numerator tuples themselves.

    Valid for any (A, m, p).  Its base is the empty arrangement's: the
    binom(ell, p) unit p-vectors or p-forms e_I with exponents 0, so
    every hyperplane of A is in the complement.
    """

    def __init__(self, A: Arrangement, kind: str, order: int = 1):
        if not 0 <= order <= A.ell:
            raise SolverError("order must satisfy 0 <= p <= ell")
        index = subsets(A.ell, order)
        units = [tuple(Poly.const(A.field, A.ell, int(I == J)) for J in index) for I in index]
        empty = Arrangement(A.field, A.ell, [], [])
        unit = FreeBase(empty, [0] * len(units), [CoeffVector("D", order, 0, nums) for nums in units], units)
        super().__init__(A, kind, order, unit)

    # perfbench traces each engine's builds through its own class dict
    build_mod = _Engine.build_mod


@dataclass
class FreeBase:
    """A free arrangement with explicit module bases.

    `arrangement` is the free arrangement itself; an engine over a larger
    A finds each of its hyperplanes in A.  `d_basis[i]` is a logarithmic
    derivation basis of it (degrees = `exponents`) and
    `omega_numerators[i]` the numerator tuples of the dual basis of its
    1-forms (degrees = negated exponents): the two pair to delta_ij times
    Q(arrangement).  The ambient engine's unit base holds unit p-vectors.
    """

    arrangement: Arrangement
    exponents: list
    d_basis: list  # CoeffVector
    omega_numerators: list  # tuple[Poly] per basis form, over Q(arrangement)
    #: numerators, reduced carriers and small F_p products mod p, keyed
    #: by tuples of different lengths and shared by the engines over this base
    _images: dict = dataclasses.field(default_factory=dict, init=False, repr=False, compare=False)


def boolean_like_base(A: Arrangement) -> FreeBase:
    """The free base on a greedy maximal independent subset of the forms.

    With u_i the chosen forms (rows of T), the base is the boolean
    arrangement of the u_i: its derivations are u_i d/du_i and its
    1-forms du_i / u_i.
    """
    ell = A.ell
    fld = A.field
    idxs = []
    ech = Echelon(fld, ell)
    for i, f in enumerate(A.forms):
        if ech.add(f.coeffs):
            idxs.append(i)
        if len(idxs) == ell:
            break
    if len(idxs) < ell:
        raise SolverError("arrangement not essential")
    return _boolean_base(tuple(A.forms[i] for i in idxs))


@lru_cache(maxsize=4)
def _boolean_base(forms) -> FreeBase:
    """The boolean base on `forms`: one object per tuple, so that the
    engines of an arrangement's deletions share its carriers.  The
    deletions of one arrangement are built together, so a few recent
    bases are enough."""
    fld = forms[0].field
    ell = len(forms)
    T = Matrix(fld, [f.coeffs for f in forms])
    Tinv = inverse(T)
    u = [f.as_poly() for f in forms]
    d_basis = []
    for i in range(ell):
        nums = tuple(u[i].scale(Tinv.rows[k][i]) for k in range(ell))
        d_basis.append(CoeffVector("D", 1, 1, nums))
    omega = []
    for i in range(ell):
        P_i = product([u[j] for j in range(ell) if j != i], field=fld, ell=ell)
        omega.append(tuple(P_i.scale(T.rows[i][k]) for k in range(ell)))
    return FreeBase(
        arrangement=Arrangement(fld, ell, list(forms), [1] * ell),
        exponents=[1] * ell,
        d_basis=d_basis,
        omega_numerators=omega,
    )


def free_base_from_saito(saito_result) -> FreeBase:
    """Build a FreeBase from a Saito certificate of freeness.

    The base's arrangement is the one the certificate was computed for.
    The dual 1-form basis comes from the adjugate of the derivation
    coefficient matrix and is verified exactly.  Those forms are the
    minimal generators of the arrangement's 1-forms, as the sweep over
    this base finds them: `minimal_generators(A, "O", base=fb)`.
    """
    if not saito_result.free:
        raise SolverError("free base needs a Saito-certified arrangement")
    gens = saito_result.generators
    A = gens.arrangement
    ell = A.ell
    fld = A.field
    cvs = gens.representatives
    degrees = list(gens.degrees)
    M = [list(cv.numerators) for cv in cvs]
    inv_c = fld.inv(saito_result.constant)
    omega = []
    for i in range(ell):
        # F = (1/c) adj(M)^T pairs dually with the derivation basis:
        # F[i][k] = (1/c) (-1)^{i+k} det(M without row i, column k)
        nums = []
        for k in range(ell):
            minor = [
                [M[r][s] for s in range(ell) if s != k]
                for r in range(ell)
                if r != i
            ]
            cof = poly_det(minor) if minor else Poly.const(fld, ell, 1)
            sign = fld.one if (i + k) % 2 == 0 else fld.neg(fld.one)
            nums.append(cof.scale(fld.mul(sign, inv_c)))
        omega.append(tuple(nums))
    for i, nums in enumerate(omega):
        cv = CoeffVector("O", 1, -degrees[i], nums)
        if membership_failures(A, cv):
            raise SolverError("dual basis form failed the membership check")
    return FreeBase(
        arrangement=A,
        exponents=degrees,
        d_basis=cvs,
        omega_numerators=omega,
    )


class RelativeEngine(_Engine):
    """The engine over a free arrangement's basis.

    Requires a simple essential arrangement A and p = 1.  The base is a
    Saito-certified free arrangement (`free_base_from_saito`) or, by
    default, the boolean-like base on a maximal independent subset of
    A's forms.  Only the hyperplanes of A outside the base contribute
    constraints, which collapses the solve sizes.
    """

    def __init__(self, A: Arrangement, kind: str, base: FreeBase | None = None):
        if not A.is_simple():
            raise SolverError("relative engine needs a simple arrangement")
        if not A.is_essential():
            raise SolverError("relative engine needs an essential arrangement")
        super().__init__(A, kind, 1, boolean_like_base(A) if base is None else base)

    # perfbench traces each engine's builds through its own class dict
    build_mod = _Engine.build_mod


#: cells of the largest constraint product an F_p engine keeps on its base
_SHARED_CELLS = 1 << 12


def _block_columns(sizes, cols):
    """Per block of widths `sizes`: (its columns kept, where they go in the output).

    `cols` is a sorted array of kept columns of the whole space, or None
    for all of them.  The kept columns of one block land next to each
    other, so where they go is a slice.
    """
    out = []
    pos = 0
    for k in sizes:
        if cols is None:
            out.append((slice(None), slice(pos, pos + k)))
        else:
            lo, hi = np.searchsorted(cols, (pos, pos + k))
            out.append((cols[lo:hi] - pos, slice(lo, hi)))
        pos += k
    return out


def normalize_element(element):
    """Scale an element's polynomials to primitive integer coefficients."""
    from math import gcd

    num_gcd = 0
    den_lcm = 1
    rational = False
    for poly in element:
        for c in poly.terms.values():
            if isinstance(c, Fraction):
                rational = True
                num_gcd = gcd(num_gcd, c.numerator)
                den_lcm = den_lcm // gcd(den_lcm, c.denominator) * c.denominator
            else:
                return element
    if not rational or num_gcd == 0:
        return element
    scale = Fraction(den_lcm, num_gcd)
    if scale == 1:
        return element
    return tuple(poly.scale(scale) for poly in element)


def _form_mod(form: LinearForm, p: int) -> LinearForm:
    return LinearForm(GF(p), [_coeff_mod(c, p) for c in form.coeffs])


def pick_engine(A: Arrangement, kind: str, order: int, prefer: str = "auto", base=None):
    if prefer not in ("auto", "ambient", "relative"):
        raise SolverError(f"unknown engine {prefer!r}: expected 'auto', 'ambient' or 'relative'")
    if prefer == "ambient":
        if base is not None:
            raise SolverError("a base needs the relative engine, not engine 'ambient'")
        return AmbientEngine(A, kind, order)
    if base is not None or prefer == "relative":
        return RelativeEngine(A, kind, base)
    if order == 1 and A.is_simple() and A.ell >= 1 and A.n > A.ell and A.is_essential():
        return RelativeEngine(A, kind)
    return AmbientEngine(A, kind, order)


# ---------------------------------------------------------------------------
# certified graded pieces
# ---------------------------------------------------------------------------


def _primes(field):
    """The primes that ranks and kernels over `field` are taken at.

    Over F_p it is the field's own prime, and every rank mod it is exact.
    Over Q it is the ladder, and a rank mod p bounds the rational rank
    from below.
    """
    return PRIMES if isinstance(field, Rationals) else (field.p,)


def graded_basis(A: Arrangement, kind: str, order: int, d: int) -> list:
    """Exact basis of D^p(A, m)_d (kind "D") or Omega^p(A, m)_d (kind "O").

    Returns a list of CoeffVectors.  Multiplicities ride along on the
    arrangement.  With nothing below d every kernel vector is a new
    generator, so the basis is what a one-degree sweep finds: over Q each
    element is reconstructed from modular solves, verified against the
    defining divisibility conditions exactly and scaled to primitive
    integer coefficients; the count is exact because mod-p ranks bound
    the rank over Q from below.
    """
    eng = pick_engine(A, kind, order)
    return [eng.to_coeffvector(el, d) for el in sweep_minimal_generators(eng, (d, d)).elements]


def graded_dimension(A: Arrangement, kind: str, order: int, d: int) -> int:
    """Exact dimension of a graded piece.

    Over F_p this is native.  Over Q a zero answer is already exact (the
    mod-p kernel bounds the rational kernel); a nonzero answer is
    certified by reconstructing and verifying a full basis.
    """
    return pick_engine(A, kind, order).dimension(d)


# ---------------------------------------------------------------------------
# evaluation matrices (free module -> graded piece coordinates)
# ---------------------------------------------------------------------------


def eval_matrix_mod(space: TwistSpace, gens, d: int, p: int) -> np.ndarray:
    """Matrix of the evaluation map  (+)_k S[-e_k] -> piece coords at degree d.

    `gens` is a list of (degree e_k, element); column (k, mono) holds the
    flattened coordinates of mono * gen_k.  Column order matches the
    TwistSpace with twists (e_1, ..., e_s).
    """
    return _densify(_eval_entries(space, gens, d, p))


def _eval_entries(space: TwistSpace, gens, d: int, p: int):
    """(rows, cols, vals, shape): the entries of `eval_matrix_mod`'s matrix, at distinct positions."""
    ell = space.ell
    tgt_offsets = []
    pos = 0
    for deg in space.block_degrees(d):
        tgt_offsets.append(pos)
        pos += dim_homogeneous(ell, deg)
    rows, vals, counts = [], [], []
    for e, el in gens:
        gdeg = d - e
        if gdeg < 0:
            continue
        src_degs = space.block_degrees(e)
        per_block = []
        for j, poly in enumerate(el):
            if src_degs[j] < 0 or poly.is_zero():
                continue
            idxmap = monomial_index(ell, src_degs[j])
            src_idx = np.array([idxmap[mo] for mo in poly.terms], dtype=np.int64)
            v = np.array([_coeff_mod(c, p) for c in poly.terms.values()], dtype=np.int64)
            per_block.append((tgt_offsets[j], src_idx, v, src_degs[j]))
        n = sum(v.size for _, _, v, _ in per_block)
        for mono in monomial_basis(ell, gdeg):
            for offset, src_idx, v, sdeg in per_block:
                rows.append(offset + shift_table(ell, sdeg, mono)[src_idx])
                vals.append(v)
            counts.append(n)
    empty = np.zeros(0, dtype=np.int64)
    cols = np.repeat(np.arange(len(counts)), counts)
    return np.concatenate([empty, *rows]), cols, np.concatenate([empty, *vals]), (space.dim(d), len(counts))


def _densify(entries, cols=None) -> np.ndarray:
    """The dense int64 matrix of (rows, cols, vals, shape) entries, on the distinct columns `cols` if given."""
    rows, c, vals, (m, n) = entries
    if cols is not None:
        at = np.full(n, -1)
        at[cols] = np.arange(len(cols))
        keep = at[c] >= 0
        rows, c, vals, n = rows[keep], at[c[keep]], vals[keep], len(cols)
    E = np.zeros((m, n), dtype=np.int64)
    E[rows, c] = vals
    return E


def combination_is_zero(gens, coeff_element) -> bool:
    """Exact check that sum_k c_k * gen_k vanishes identically.

    `coeff_element` is an element of the TwistSpace whose twists are the
    generator degrees (one coefficient polynomial per generator).
    """
    if not gens:
        return all(p.is_zero() for p in coeff_element)
    nblocks = len(gens[0][1])
    for j in range(nblocks):
        acc = None
        for (e, el), c in zip(gens, coeff_element):
            if c.is_zero() or el[j].is_zero():
                continue
            term = c * el[j]
            acc = term if acc is None else acc + term
        if acc is not None and not acc.is_zero():
            return False
    return True


# ---------------------------------------------------------------------------
# certified minimal-generator sweep
# ---------------------------------------------------------------------------


class EvalKernelFamily:
    """Graded pieces of the relation module of a list of generators.

    The piece at degree d is the kernel of the evaluation map into
    `tgt_space`; its elements are coefficient tuples (one polynomial per
    generator), i.e. elements of TwistSpace(twists = generator degrees).

    `image_dims`, when given, maps degrees to the exact dimension of the
    module the generators span there (certified by the caller): that is
    the rank over the field of the evaluation map, so no elimination is
    needed for it.
    """

    def __init__(self, tgt_space: TwistSpace, gens, field, image_dims=None):
        self.tgt_space = tgt_space
        self.gens = gens
        self.space = TwistSpace(tgt_space.ell, tuple(e for e, _ in gens))
        self.field = field
        self.image_dims = image_dims or {}

    def build_mod(self, d: int, p: int, cols=None) -> np.ndarray:
        return _densify(_eval_entries(self.tgt_space, self.gens, d, p), cols)

    def verify(self, element, d: int) -> bool:
        return combination_is_zero(self.gens, element)

    def known_rank(self, d: int):
        return self.image_dims.get(d)


@dataclass
class SweepResult:
    degrees: list  # degrees of the generators found in the window, in sweep order
    elements: list  # engine/space elements, aligned with degrees
    dims: dict  # degree -> exact piece dimension, for every degree swept


def _eval_prime(gens, primes):
    """First of `primes` coprime to every denominator in the generators, else the first."""
    for p in primes if len(primes) > 1 else ():
        try:
            for e, el in gens:
                for poly in el:
                    for c in poly.terms.values():
                        _coeff_mod(c, p)
            return p
        except ZeroDivisionError:
            continue
    return primes[0]


def sweep_minimal_generators(family, degree_range, stop=None, hints=None, gens=()) -> SweepResult:
    """Degreewise minimal generators of the graded module cut out by `family`.

    At each degree the new generators are the cokernel of the evaluation
    map of the generators found so far.  The dimensions are certified by
    mod-p rank bounds (exact over F_p), and over Q every exhibited
    representative passes `family.verify` exactly.  `hints` maps a degree
    to elements already verified as members, which are tried there
    before the kernel.

    `gens` are (degree, element) generators already known below the
    window; only the generators found inside it are returned.  After each
    degree with a nonzero coordinate space, `stop(gens)` sees every
    (degree, element) generator so far and ends the sweep when it returns
    true.
    """
    lo, hi = degree_range
    gens = list(gens)
    known = len(gens)
    dims = {}
    for d in range(lo, hi + 1):
        ncols = family.space.dim(d)
        if ncols == 0:
            dims[d] = 0
            continue
        n_d, new = _degree_step(family, gens, d, ncols, (hints or {}).get(d, ()))
        dims[d] = n_d
        gens.extend((d, el) for el in new)
        if stop is not None and stop(gens):
            break
    found = gens[known:]
    return SweepResult(degrees=[d for d, _ in found], elements=[el for _, el in found], dims=dims)


def _degree_step(family, gens, d: int, ncols: int, hints_d=()):
    """(piece dimension, new generators) at degree d, given the generators below it.

    The eval image C mod p0 projects isomorphically onto its row pivots P,
    so V = C + span(e_j, j not in P), and C lies in the kernel: the
    constraint matrix needs ranking only on the other columns, and
    n0 = ncols - rank of that matrix is the ncols - rank_p0 of a full
    elimination (a known rank gives it exactly).  The dimension lies
    between the certified eval rank (the span of verified-member
    multiples) and n0, so equality pins it with no kernel.  Once the eval
    rank is certified equal to |P|, C meets span(e_j, j not in P) in 0
    over Q too, so the kernel is C + (the kernel on the columns off P),
    and every vector of the kernel off P is a new generator.  Over F_p, p0
    is the field's prime and every rank and kernel is exact and taken once.
    """
    field = family.field
    primes = _primes(field)
    p0 = _eval_prime(gens, primes)
    rank = family.known_rank(d)
    if rank == ncols:
        return 0, []
    rows, entries = _eval_row_pivots(family.space, gens, d, p0)
    cols = np.setdiff1d(np.arange(ncols), rows)
    K = None  # the exact kernel off P mod the field's prime, once taken
    if rank is None and len(primes) > 1:
        rank = rank_mod(family.build_mod(d, p0, cols), p0)
    elif rank is None:
        # at the field's prime the reduced elimination costs about what
        # the rank does, and its kernel serves a generator degree too
        K = kernel_mod(family.build_mod(d, p0, cols), p0)
        rank = len(cols) - len(K)
    n0 = ncols - rank
    if n0 == len(rows):
        return n0, []
    rank_eval = _certified_eval_rank(family.space, gens, d, field, n0, entries, len(rows))
    if rank_eval == n0:
        return n0, []
    if hints_d:
        chosen = _try_hinted_generators(family, gens, d, hints_d, n0, rank_eval, entries, p0)
        if chosen is not None:
            return n0, chosen
    if len(rows) < rank_eval:
        # p0 is bad for the eval matrix: take P where it reaches its rank
        rows = _eval_row_pivots_at_rank(family.space, gens, d, primes, rank_eval)
        cols = np.setdiff1d(np.arange(ncols), rows)

    # apparent generator degree: the new generators are the kernel off P,
    # taken at the field's prime or lifted and verified over Q.  The piece
    # dimension is the eval rank plus their number, certified on both
    # sides: the eval columns and the new vectors are verified members,
    # independent because the new ones vanish on P, where C has full
    # rank; and the mod-p rank of the matrix off P bounds the kernel off P
    # from above
    off = cols.tolist()

    def new_generators(vectors):
        out = []
        for v in vectors:
            coords = [0] * ncols
            for c, x in zip(off, v):
                coords[c] = x
            out.append(normalize_element(family.space.element_from_coords(field, d, coords)))
        return out

    def accept(vectors):
        new = new_generators(vectors)
        if not all(family.verify(el, d) for el in new):
            return None
        return rank_eval + len(new), new

    def build(p):
        return family.build_mod(d, p, cols)

    if len(primes) > 1:
        return kernel_qq_candidates(build, len(cols), accept)[0]
    if K is None:
        K = kernel_mod(build(p0), p0)
    return rank_eval + len(K), new_generators(K.tolist())


def _try_hinted_generators(family, gens, d, hints_d, n0, rank_eval, entries, p0):
    """Fill the quotient with caller-supplied exact elements if possible.

    Returns the selected new generators, or None when the hints do not
    span the whole cokernel (the caller then falls back to the kernel).
    Exactness: every hint was verified as a member when it was received,
    the eval rank is already certified, and the mod-p pivot count bounds
    the rational independence from below while n0 bounds the piece
    dimension from above.
    """
    try:
        # a hint at its own degree is one eval column: its flat coordinates
        C = eval_matrix_mod(family.space, [(d, el) for el in hints_d], d, p0)
    except ZeroDivisionError:
        return None
    picked = _completing_columns(_densify(entries), C, p0, rank_eval, n0)
    if picked is None:
        return None
    return [normalize_element(hints_d[c]) for c in picked]


def _completing_columns(E, C, p: int, rank_eval: int, upper: int):
    """The columns of C that complete the image of E mod p to dimension `upper`, or None.

    They are the pivots of [E | C] right of E.  The pivots inside E must
    number `rank_eval`, the certified rank of E: a prime where E falls
    short of it pins nothing.  The picked columns must number
    upper - rank_eval.
    """
    _, pivots = rref_mod(np.hstack([E, C]), p, reduced=False)
    picked = [c - E.shape[1] for c in pivots if c >= E.shape[1]]
    if len(pivots) - len(picked) != rank_eval or len(picked) != upper - rank_eval:
        return None
    return picked


def _eval_row_pivots(tgt_space: TwistSpace, gens, d: int, p: int):
    """(P, entries): the entries of the eval matrix E of `gens` at degree d mod p and its row pivots P, from the last row.

    P is the set of last nonzero coordinates of the image's vectors, so
    the image mod p projects isomorphically onto these coordinates.  They
    are the pivots of the transposed matrix with its coordinates reversed,
    read off its entries (`sparse_pivots_mod`): a generator multiple whose
    last nonzero coordinate no other multiple shares puts it in P as it
    stands, and only the multiples that share one are eliminated.  The
    entries are handed back for the caller's other reads at p, so a degree
    step builds E once there, and densifies it only for a dense
    elimination.  Why the last rows: a vector of the kernel ends at a free
    column of the constraint matrix, so P is free there, and the reduced
    kernel basis on the columns off P is the set of rows of the full
    reduced kernel basis that complete the image (those whose free column
    is no image vector's last coordinate).  Taken from the first rows, P
    would give other new generators, equal modulo the image, and other
    reported elements: the sign of ziegler22's Saito constant flips.
    """
    entries = _eval_entries(tgt_space, gens, d, p)
    rows, cols, vals, (m, _) = entries
    last = m - 1
    return sorted(last - r for r in sparse_pivots_mod(cols, last - rows, vals, m, p)), entries


def _eval_row_pivots_at_rank(tgt_space: TwistSpace, gens, d: int, primes, rank: int):
    """`_eval_row_pivots` at the first of `primes` where the eval matrix has rank `rank`."""
    for p in primes:
        try:
            rows = _eval_row_pivots(tgt_space, gens, d, p)[0]
        except ZeroDivisionError:
            continue
        if len(rows) == rank:
            return rows
    raise SolverError(f"no prime reaches the certified eval rank {rank} at degree {d}")


def _certified_eval_rank(tgt_space: TwistSpace, gens, d: int, field, upper, entries=None, rank=None):
    """Exact rank over `field` of the evaluation map of `gens` at degree d.

    The rank is taken first mod p0, the prime of `_eval_prime` (`entries`
    and `rank` are the eval matrix's entries and its rank there, when the
    caller already has them).  That rank bounds the rank over `field`
    from below, so it is exact when it reaches `upper` (an upper bound the
    caller knows, or None) or the number of columns, or when p0 is the
    field's own prime.  Otherwise the rank is certified by exhibiting the
    whole kernel, lifted from the ladder primes: every candidate relation
    must vanish exactly.
    """
    primes = _primes(field)
    p0 = _eval_prime(gens, primes)
    src = TwistSpace(tgt_space.ell, tuple(e for e, _ in gens))
    ncols = src.dim(d)
    if ncols == 0:
        return 0
    if entries is None:
        entries = _eval_entries(tgt_space, gens, d, p0)
    if rank is None:
        rank = rank_mod(_densify(entries), p0)
    if rank in (upper, ncols) or len(primes) == 1:
        return rank

    def accept(vectors):
        if all(combination_is_zero(gens, src.element_from_coords(field, d, v)) for v in vectors):
            return ncols - len(vectors)
        return None

    def build(p):
        return _densify(entries) if p == p0 else eval_matrix_mod(tgt_space, gens, d, p)

    return kernel_qq_candidates(build, ncols, accept)[0]


# ---------------------------------------------------------------------------
# public API: minimal generators and the Saito criterion
# ---------------------------------------------------------------------------


@dataclass
class GeneratorSet:
    """Every minimal generator of a log module in a degree window, and the
    exact piece dimension (`dims`) at each degree of the window."""

    arrangement: Arrangement
    kind: str
    order: int
    degrees: list
    representatives: list  # CoeffVector, aligned with degrees
    elements: list
    dims: dict
    degree_bound_used: tuple
    engine: object

    def degree_multiset(self):
        return sorted(self.degrees)

    def count_by_degree(self):
        out = {}
        for d in self.degrees:
            out[d] = out.get(d, 0) + 1
        return out


def default_degree_range(A: Arrangement, kind: str):
    if kind == "D":
        return (0, A.deg_Q())
    return (-A.deg_Q(), 0)


def minimal_generators(
    A: Arrangement,
    kind: str,
    order: int = 1,
    degree_range=None,
    engine: str = "auto",
    base=None,
    hints=None,
) -> GeneratorSet:
    """Minimal generators of D^p (kind "D") or Omega^p (kind "O").

    Sweeps the degree window (default: [0, deg Q] for D, [-deg Q, 0] for
    Omega) and at each degree quotients the graded piece by the span of
    the monomial multiples of the generators already found.  For p = 1
    the sweep ends once its generators pass Saito's criterion
    (`_SaitoBasis`); they are then a basis, and the rest of the window
    has the dimensions of the free module they span.

    `base` (a FreeBase whose hyperplanes all lie in A) chooses the
    coordinates of the relative engine.  `hints` (CoeffVectors tried
    before reconstruction at their degree) ride whatever engine is
    picked: each is read in its coordinates once, here
    (`element_from_cv`), and checked on the complement (`verify`); a
    non-member raises SolverError.  `engine` ("auto", "ambient" or
    "relative") picks the engine by name.
    """
    if degree_range is None:
        degree_range = default_degree_range(A, kind)
    eng = pick_engine(A, kind, order, engine, base=base)
    hint_map = {}
    for cv in hints or ():
        el = eng.element_from_cv(cv)
        if not eng.verify(el, cv.degree):
            raise SolverError(f"hint of degree {cv.degree} is not a member of the module")
        hint_map.setdefault(cv.degree, []).append(el)
    stop = _SaitoBasis(eng) if order == 1 else None
    res = sweep_minimal_generators(eng, degree_range, stop=stop, hints=hint_map)
    return _generator_set(A, kind, order, eng, res, tuple(degree_range))


@dataclass
class SaitoResult:
    free: bool
    exponents: list | None
    constant: object | None
    generators: GeneratorSet | None
    reason: str

    def __bool__(self):
        return self.free


def saito_check(A: Arrangement, degree_bound=None) -> SaitoResult:
    """Freeness certificate via the determinant criterion.

    Sweeps minimal generators of the derivation module until they pass
    Saito's criterion (`_SaitoBasis`), which certifies freeness with their
    degrees as exponents, or number more than ell; a completed sweep with
    neither certifies non-freeness.  Its set covers (0, deg Q), (0,
    degree_bound) or, past ell generators, (0, the last degree swept).
    An ell = 0 arrangement is free with no exponents and constant 1.
    """
    if not A.is_essential():
        raise SolverError("saito_check needs an essential arrangement; essentialize first")
    ell = A.ell
    if ell == 0:
        return SaitoResult(True, [], A.field.one, None, "ell = 0: the empty basis has determinant 1 = Q")
    hi = A.deg_Q() if degree_bound is None else degree_bound
    eng = pick_engine(A, "D", 1)
    rule = _SaitoBasis(eng)
    res = sweep_minimal_generators(eng, (0, hi), stop=lambda gens: len(gens) > ell or rule(gens))
    too_many = len(res.degrees) > ell
    gs = _generator_set(A, "D", 1, eng, res, (0, max(res.dims)) if too_many else (0, hi))
    if rule.constant is not None:
        return SaitoResult(True, sorted(res.degrees), rule.constant, gs, "determinant matches Q")
    if too_many:
        reason = f"more than {ell} minimal generators"
    elif degree_bound is None:
        reason = "no Saito basis; arrangement not free"
    else:
        reason = "not free up to bound"
    return SaitoResult(False, None, None, gs, reason)


class _SaitoBasis:
    """Saito's criterion as the stop rule of an order-1 sweep (K. Saito
    1980; Ziegler 1989 for multiarrangements): ell generators whose
    degrees sum to deg Q(A, m) for D, or -deg Q for Omega, are a basis
    when `_saito_constant` of their numerators is not None.  It tests
    them once, fires when they pass and keeps that constant."""

    def __init__(self, eng):
        self.eng = eng
        self.degree_sum = eng.A.deg_Q() if eng.kind == "D" else -eng.A.deg_Q()
        self.constant = None
        self.tried = False

    def __call__(self, gens) -> bool:
        if len(gens) == self.eng.A.ell and not self.tried and sum(e for e, _ in gens) == self.degree_sum:
            self.tried = True
            self.constant = _saito_constant(self.eng.A, [self.eng.to_coeffvector(el, e) for e, el in gens])
        return self.constant is not None


def _generator_set(A, kind, order, eng, res: SweepResult, rng):
    # a degree of the window past a Saito basis has the free module's dimension
    dims = {d: res.dims[d] if d in res.dims else free_piece_dimension(A.ell, res.degrees, d)
            for d in range(rng[0], rng[1] + 1)}
    return GeneratorSet(
        arrangement=A,
        kind=kind,
        order=order,
        degrees=res.degrees,
        representatives=[eng.to_coeffvector(el, d) for d, el in zip(res.degrees, res.elements)],
        elements=res.elements,
        dims=dims,
        degree_bound_used=rng,
        engine=eng,
    )


def _saito_constant(A: Arrangement, cvs):
    """c with det(numerator matrix) = c * Q(A, m)^k, or None when c = 0.

    The numerators are those of ell members of D(A, m) (k = 1) or of
    Omega^1(A, m) (k = ell - 1) whose degrees sum to deg Q or -deg Q, so
    det = c * Q^k with c a constant (Saito's lemma).  The ring map
    x -> (1, z, ..., z^(ell-1)) sends Q to a nonzero univariate
    polynomial, so c is the ratio of the leading coefficients of the two
    images, and c = 0 exactly when the image of det vanishes.
    """
    fld = A.field
    z = Poly.variable(fld, 1, 0)
    to_line = Pullback([z**i for i in range(A.ell)])
    det = poly_det([[to_line(f) for f in cv.numerators] for cv in cvs])
    if det.is_zero():
        return None
    k = A.ell - 1 if cvs[0].kind == "O" else 1
    lead_q = fld.one
    for alpha, m in zip(A.forms, A.mult):
        a = [c for c in alpha.coeffs if c][-1]
        for _ in range(m * k):
            lead_q = fld.mul(lead_q, a)
    return fld.div(det.terms[max(det.terms)], lead_q)


def free_piece_dimension(ell: int, exponents, d: int) -> int:
    """Graded dimension of a free module with the given generator degrees."""
    return sum(dim_homogeneous(ell, d - e) for e in exponents)
