"""Degreewise exact computation of logarithmic derivation and form modules.

Graded pieces are kernels of divisibility constraints on numerator
coefficient vectors.  Two engines produce them:

  * ambient: unknowns are the numerator tuples themselves; one
    divisibility block per hyperplane and condition subset;
  * relative: for simple essential arrangements with p = 1, unknowns are
    coordinates over the explicit free basis attached to a maximal
    independent subset of the forms, so only the remaining hyperplanes
    contribute constraints.  This collapses the solve sizes; the two
    engines must agree and are cross-checked in the tests.

Both engines condition on `condition_terms`, and each is the family of
its module's pieces: `space`, `field`, `build_mod`, `verify` and
`known_rank`, plus the remembered `kernel(d)` and `dimension(d)`.  The
relation pieces of a list of generators (`EvalKernelFamily`) read the
same protocol, so one degree step of `sweep_minimal_generators` serves
every family on both fields, and one routine, `_certified_eval_rank`,
certifies the rank of every evaluation map.  Every kernel goes through
`_certified_kernel`; the field is looked at only there and where the
primes are chosen (`_primes`).  Over F_p the modular elimination is the
field arithmetic, so every rank and kernel mod the field's prime is exact
and is taken once.  Over Q kernels are
computed mod deterministic ladder primes, lifted by CRT + rational
reconstruction, and then certified: exhibited elements are verified
exactly at the polynomial level, and mod-p ranks bound the ranks over Q
from below, which pins every reported dimension exactly.  A Q degree
step ranks the eval matrix of the generators below it first and builds
the constraint matrix only on the columns that image leaves out
(`build_mod(d, p, cols)`): at most degrees the generators span the
piece, and a full column rank there certifies it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from .arrangement import Arrangement, ArrangementError
from .fields import GF, Rationals
from .linalg import Matrix, det
from .modular import (
    PRIMES,
    kernel_mod,
    kernel_qq_candidates,
    rank_mod,
    rref_mod,
)
from .divisibility import divisibility_table_mod, monomial_exponents, monomial_rank
from .poly import (
    LinearForm,
    Poly,
    dim_homogeneous,
    divisible_by_linear_power,
    monomial_basis,
    monomial_index,
    product,
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


def condition_polys(cv: CoeffVector, alpha: LinearForm):
    """The per-hyperplane polynomials that must be divisible by alpha^m."""
    out = []
    for terms in condition_terms(cv.kind, cv.order, alpha):
        if terms:
            P = cv.numerators[terms[0][0]].scale(terms[0][1])
            for b, c in terms[1:]:
                P = P + cv.numerators[b].scale(c)
            out.append(P)
    return out


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

    def flatten_mod(self, element, d: int, p: int) -> np.ndarray:
        vec = np.zeros(self.dim(d), dtype=np.int64)
        pos = 0
        for poly, deg in zip(element, self.block_degrees(d)):
            if deg < 0:
                continue
            idx = monomial_index(self.ell, deg)
            for mono, c in poly.terms.items():
                vec[pos + idx[mono]] = _coeff_mod(c, p)
            pos += len(idx)
        return vec


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
    """The graded pieces of one module over its arrangement's field.

    The piece at degree d is the kernel of the engine's divisibility
    constraints (`build_mod`), and `verify` checks an element exactly.
    Dimensions are remembered per degree, so one engine answers repeated
    questions about its module without eliminating again.
    """

    def __init__(self, A: Arrangement, kind: str, order: int):
        if kind not in ("D", "O"):
            raise ValueError("kind must be 'D' or 'O'")
        self.A = A
        self.kind = kind
        self.order = order
        self.field = A.field
        self._dims = {}

    def known_rank(self, d: int):
        """Rank over the field of the matrix at degree d if known without elimination."""
        return None

    def kernel(self, d: int):
        """Exact kernel basis at degree d: (elements, coords, primes).

        A lifted candidate is verified element by element, and one that
        fails is replaced by a lift from more primes.
        """
        ncols = self.space.dim(d)
        if ncols == 0:
            return [], [], ()

        def accept(vectors, primes, exact):
            elements = [self.space.element_from_coords(self.field, d, v) for v in vectors]
            if not exact and not all(self.verify(el, d) for el in elements):
                return None
            return elements, vectors, primes

        return _certified_kernel(lambda p: self.build_mod(d, p), ncols, self.field, accept)

    def dimension(self, d: int) -> int:
        """Exact dimension of the piece at degree d: the size of its certified kernel.

        A matrix of full rank mod the first prime ends the kernel search
        at once, and an exact kernel is counted without building elements.
        """
        n = self._dims.get(d)
        if n is None:
            ncols = self.space.dim(d)

            def count(vectors, primes, exact):
                if exact or all(self.verify(self.space.element_from_coords(self.field, d, v), d) for v in vectors):
                    return len(vectors)
                return None

            n = _certified_kernel(lambda p: self.build_mod(d, p), ncols, self.field, count) if ncols else 0
            self._dims[d] = n
        return n


class AmbientEngine(_Engine):
    """Constraints on raw numerator tuples; valid for any (A, m, p)."""

    def __init__(self, A: Arrangement, kind: str, order: int = 1):
        super().__init__(A, kind, order)
        if not 0 <= order <= A.ell:
            raise SolverError("order must satisfy 0 <= p <= ell")
        offset = 0 if kind == "D" else A.deg_Q()
        self.space = TwistSpace(A.ell, tuple([-offset] * comb(A.ell, order)))

    def numerator_degree(self, d: int) -> int:
        return d if self.kind == "D" else d + self.A.deg_Q()

    def build_mod(self, d: int, p: int, cols=None) -> np.ndarray:
        N = self.numerator_degree(d)
        ncols = self.space.dim(d) if cols is None else len(cols)
        if N < 0 or self.space.dim(d) == 0:
            return np.zeros((0, ncols), dtype=np.int64)
        dimS = dim_homogeneous(self.A.ell, N)
        block_cols = _block_columns([dimS] * len(self.space.twists), cols)
        blocks = []
        for h in range(self.A.n):
            alpha = _form_mod(self.A.forms[h], p)
            table = divisibility_table_mod(alpha, self.A.mult[h], N)
            nrows = table.shape[0]
            conds = condition_terms(self.kind, self.order, alpha)
            M = np.zeros((nrows * len(conds), ncols), dtype=np.int64)
            for ci, terms in enumerate(conds):
                rows = slice(ci * nrows, (ci + 1) * nrows)
                for b, c in terms:
                    local, out = block_cols[b]
                    M[rows, out] = (M[rows, out] + int(c) % p * table[:, local]) % p
            blocks.append(M)
        if not blocks:
            return np.zeros((0, ncols), dtype=np.int64)
        return np.vstack(blocks)

    def to_coeffvector(self, element, d: int) -> CoeffVector:
        return CoeffVector(self.kind, self.order, d, tuple(element))

    def element_from_cv(self, cv: CoeffVector):
        if cv.kind != self.kind or cv.order != self.order:
            raise SolverError("hint does not match the module selector")
        return tuple(cv.numerators)

    def verify(self, element, d: int) -> bool:
        return not membership_failures(self.A, self.to_coeffvector(element, d))


@dataclass
class FreeBase:
    """A certified free subarrangement with explicit module bases.

    `indices` select the base hyperplanes inside the host arrangement;
    `d_basis[i]` is a logarithmic derivation basis of the base (degrees =
    `exponents`, Saito determinant = constant * Q(base)) and
    `omega_numerators[i]` the numerator tuples of the dual basis of its
    1-forms (degrees = negated exponents).
    """

    indices: list
    exponents: list
    d_basis: list  # CoeffVector
    omega_numerators: list  # tuple[Poly] per basis form, over Q(base)
    constant: object


def boolean_like_base(A: Arrangement) -> FreeBase:
    """The free base on a greedy maximal independent subset of the forms.

    With u_i the chosen forms (rows of T), the base derivations are
    u_i d/du_i and the base 1-forms du_i / u_i.
    """
    from .lattice import _Echelon

    ell = A.ell
    fld = A.field
    idxs = []
    ech = _Echelon(fld)
    for i, f in enumerate(A.forms):
        if ech.add(list(f.coeffs)):
            idxs.append(i)
        if len(idxs) == ell:
            break
    if len(idxs) < ell:
        raise SolverError("arrangement not essential")
    T = Matrix(fld, [A.forms[i].coeffs for i in idxs])
    Tinv = _invert(T)
    u = [A.forms[i].as_poly() for i in idxs]
    d_basis = []
    for i in range(ell):
        nums = tuple(u[i].scale(Tinv.rows[k][i]) for k in range(ell))
        d_basis.append(CoeffVector("D", 1, 1, nums))
    omega = []
    for i in range(ell):
        P_i = product([u[j] for j in range(ell) if j != i], field=fld, ell=ell)
        omega.append(tuple(P_i.scale(T.rows[i][k]) for k in range(ell)))
    det_t = det(fld, T.rows)
    return FreeBase(
        indices=idxs,
        exponents=[1] * ell,
        d_basis=d_basis,
        omega_numerators=omega,
        constant=det_t,
    )


def free_base_from_saito(A: Arrangement, indices, saito_result) -> FreeBase:
    """Build a FreeBase from a Saito-certified free subarrangement.

    `saito_result` must be the certificate for the subarrangement of
    `A` selected by `indices` (same form order).  The dual 1-form basis
    comes from the adjugate of the derivation coefficient matrix and is
    verified exactly.
    """
    from .poly import poly_det

    if not saito_result.free:
        raise SolverError("free base needs a Saito-certified subarrangement")
    ell = A.ell
    fld = A.field
    sub = validate_subarrangement(A, indices)
    gens = saito_result.generators
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
        if membership_failures(sub, cv):
            raise SolverError("dual basis form failed the membership check")
    return FreeBase(
        indices=list(indices),
        exponents=degrees,
        d_basis=cvs,
        omega_numerators=omega,
        constant=saito_result.constant,
    )


def validate_subarrangement(A: Arrangement, indices) -> Arrangement:
    return Arrangement(
        A.field,
        A.ell,
        [A.forms[i] for i in indices],
        [A.mult[i] for i in indices],
    )


class RelativeEngine(_Engine):
    """Constraints in coordinates over a free subarrangement's basis.

    Requires a simple essential arrangement and p = 1.  With base modules
    free on theta0_i (derivations, degrees e_i) and eta_i (1-forms,
    degrees -e_i):

      kind "D": theta = sum g_i theta0_i; each complement hyperplane H
      imposes alpha_H | sum_i g_i * theta0_i(alpha_H).
      kind "O": (prod of complement forms) * omega = sum g_i eta_i; each
      complement H imposes the wedge conditions on the combined
      numerators over Q(A).

    Base-hyperplane conditions hold identically for any coefficients.
    """

    def __init__(self, A: Arrangement, kind: str, base: FreeBase | None = None):
        super().__init__(A, kind, 1)
        if not A.is_simple():
            raise SolverError("relative engine needs a simple arrangement")
        if A.essential_rank != A.ell:
            raise SolverError("relative engine needs an essential arrangement")
        if base is None:
            base = boolean_like_base(A)
        self.base = base
        self.complement = [i for i in range(A.n) if i not in set(base.indices)]
        nc = len(self.complement)
        # block i of an element is the coefficient of the base element _basis[i]
        if kind == "D":
            self.space = TwistSpace(A.ell, tuple(base.exponents))
            self._basis = list(base.d_basis)
        else:
            self.space = TwistSpace(A.ell, tuple(-(nc + e) for e in base.exponents))
            self._basis = [CoeffVector("O", 1, -e, nums) for e, nums in zip(base.exponents, base.omega_numerators)]
        self._carrier_cache = {}

    def numerator_degree(self, d: int) -> int:
        return d if self.kind == "D" else d + self.A.n

    def _conditions_exact(self, h: int):
        """Conditions over the host field: [(block i, carrier Poly)].

        The carriers of a condition are its polynomials (`condition_polys`)
        on the base elements; zero carriers and conditions without
        carriers are left out.
        """
        conds = self._carrier_cache.get(h)
        if conds is None:
            per_base = [condition_polys(cv, self.A.forms[h]) for cv in self._basis]
            conds = [[(i, w) for i, w in enumerate(ws) if not w.is_zero()] for ws in zip(*per_base)]
            conds = [c for c in conds if c]
            self._carrier_cache[h] = conds
        return conds

    def build_mod(self, d: int, p: int, cols=None) -> np.ndarray:
        ell = self.A.ell
        block_degs = self.space.block_degrees(d)
        ncols = self.space.dim(d) if cols is None else len(cols)
        if all(bd < 0 for bd in block_degs):
            return np.zeros((0, ncols), dtype=np.int64)
        N = self.numerator_degree(d)
        block_cols = _block_columns([dim_homogeneous(ell, bd) for bd in block_degs], cols)
        blocks = []
        for h in self.complement:
            # rows of the table transposed, so that the carrier products
            # gather contiguous rows
            tableT = divisibility_table_mod(_form_mod(self.A.forms[h], p), self.A.mult[h], N).T.copy()
            nrows = tableT.shape[1]
            conds = self._conditions_exact(h)
            M = np.zeros((nrows * len(conds), ncols), dtype=np.int64)
            for ci, terms in enumerate(conds):
                for i, carrier in terms:
                    bd = block_degs[i]
                    if bd < 0:
                        continue
                    local, out = block_cols[i]
                    M[ci * nrows : (ci + 1) * nrows, out] = _carrier_product(tableT, carrier, ell, bd, p, local).T
            blocks.append(M)
        if not blocks:
            return np.zeros((0, ncols), dtype=np.int64)
        return np.vstack(blocks)

    def to_coeffvector(self, element, d: int) -> CoeffVector:
        ell = self.A.ell
        numerators = []
        for k in range(ell):
            P = Poly.zero(self.field, ell)
            for i in range(ell):
                src = self._basis[i].numerators[k]
                if element[i] and src:
                    P = P + element[i] * src
            numerators.append(P)
        return CoeffVector(self.kind, 1, d, tuple(numerators))

    def verify(self, element, d: int) -> bool:
        # base-form conditions hold identically; check the complement
        cv = self.to_coeffvector(element, d)
        return not membership_failures(self.A, cv, hyperplanes=self.complement)


#: cells gathered at once when a carrier multiplies a divisibility table
_GATHER_CELLS = 1 << 20


def _carrier_product(tableT, carrier: Poly, ell: int, bd: int, p: int, local=slice(None)) -> np.ndarray:
    """Transposed table of g -> carrier * g on S_bd, reduced mod p.

    Column r of the table of the product is sum_t c_t * table[:, tab_t[r]]
    over the carrier terms c_t * x^(mu_t), tab_t = shift_table(ell, bd, mu_t).
    Only the columns `local` of S_bd are gathered.  Products are below
    2**56, so a sum of up to 127 of them plus an entry below p stays
    inside int64.
    """
    tabs = np.stack([shift_table(ell, bd, cm) for cm in carrier.terms])[:, local]
    coeffs = np.array([_coeff_mod(c, p) for c in carrier.terms.values()], dtype=np.int64)
    nterms, dimg = tabs.shape
    out = np.zeros((dimg, tableT.shape[1]), dtype=np.int64)
    step = max(1, min(127, _GATHER_CELLS // max(out.size, 1)))
    for s in range(0, nterms, step):
        gathered = tableT[tabs[s : s + step]]
        gathered *= coeffs[s : s + step, None, None]
        out += gathered.sum(axis=0)
        np.mod(out, p, out=out)
    return out


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


def _invert(M: Matrix) -> Matrix:
    from .linalg import rref

    f = M.field
    n = M.nrows
    aug = Matrix(
        f,
        [list(M.rows[i]) + [f.one if j == i else f.zero for j in range(n)] for i in range(n)],
    )
    R, pivots, rk = rref(aug)
    if rk != n or pivots != list(range(n)):
        raise SolverError("matrix not invertible")
    return Matrix(f, [R.rows[i][n:] for i in range(n)])


def pick_engine(A: Arrangement, kind: str, order: int, prefer: str = "auto", base=None):
    if prefer == "ambient":
        return AmbientEngine(A, kind, order)
    if base is not None or prefer == "relative":
        return RelativeEngine(A, kind, base)
    if (
        order == 1
        and A.is_simple()
        and A.ell >= 1
        and A.n > A.ell
        and A.essential_rank == A.ell
    ):
        return RelativeEngine(A, kind)
    return AmbientEngine(A, kind, order)


# ---------------------------------------------------------------------------
# certified graded pieces
# ---------------------------------------------------------------------------


@dataclass
class GradedBasis:
    """Exact basis of one graded piece."""

    arrangement: Arrangement
    kind: str
    order: int
    degree: int
    vectors: list  # of CoeffVector
    elements: list  # engine-internal block tuples
    engine: object
    primes: tuple

    @property
    def dimension(self):
        return len(self.vectors)


def _primes(field):
    """The primes that ranks and kernels over `field` are taken at.

    Over F_p it is the field's own prime, and every rank mod it is exact.
    Over Q it is the ladder, and a rank mod p bounds the rational rank
    from below.
    """
    return PRIMES if isinstance(field, Rationals) else (field.p,)


def _certified_kernel(build, ncols: int, field, accept):
    """The result of the first kernel candidate that `accept` certifies.

    `build(p)` returns the matrix mod p.  `accept(vectors, primes, exact)`
    gets a candidate basis (coordinate lists) and returns its result, or
    None when the candidate fails exact verification; `exact` says it
    needs none.  Over F_p the kernel mod the field's prime is exact, and
    so is every rank at that prime.  Over Q a wrong lift of a few primes
    can still reconstruct, so `kernel_qq_candidates` answers a rejected
    candidate with one more prime for its group, until the ladder is used
    up (`ReconstructionFailed`).
    """
    if not isinstance(field, Rationals):
        p = field.p
        return accept(kernel_mod(build(p), p).tolist(), (p,), True)
    return kernel_qq_candidates(build, ncols, accept)[0]


def graded_basis(
    A: Arrangement,
    kind: str,
    order: int = 1,
    d: int = 0,
    engine: str = "auto",
) -> GradedBasis:
    """Exact basis of D^p(A, m)_d (kind "D") or Omega^p(A, m)_d (kind "O").

    Multiplicities ride along on the arrangement.  Over Q the basis is
    reconstructed from modular solves and every element is verified
    against the defining divisibility conditions exactly; the dimension
    is exact because mod-p ranks bound the rank over Q from below.
    """
    eng = pick_engine(A, kind, order, engine)
    elements, coords, primes = eng.kernel(d)
    return GradedBasis(
        arrangement=A,
        kind=kind,
        order=order,
        degree=d,
        vectors=[eng.to_coeffvector(el, d) for el in elements],
        elements=elements,
        engine=eng,
        primes=primes,
    )


def graded_dimension(A: Arrangement, kind: str, order: int = 1, d: int = 0, engine: str = "auto") -> int:
    """Exact dimension of a graded piece.

    Over F_p this is native.  Over Q a zero answer is already exact (the
    mod-p kernel bounds the rational kernel); a nonzero answer is
    certified by reconstructing and verifying a full basis.
    """
    return pick_engine(A, kind, order, engine).dimension(d)


# ---------------------------------------------------------------------------
# evaluation matrices (free module -> graded piece coordinates)
# ---------------------------------------------------------------------------


def eval_matrix_mod(space: TwistSpace, gens, d: int, p: int) -> np.ndarray:
    """Matrix of the evaluation map  (+)_k S[-e_k] -> piece coords at degree d.

    `gens` is a list of (degree e_k, element); column (k, mono) holds the
    flattened coordinates of mono * gen_k.  Column order matches the
    TwistSpace with twists (e_1, ..., e_s).
    """
    ell = space.ell
    ncols = sum(dim_homogeneous(ell, d - e) for e, _ in gens)
    E = np.zeros((space.dim(d), ncols), dtype=np.int64)
    tgt_offsets = []
    pos = 0
    for deg in space.block_degrees(d):
        tgt_offsets.append(pos)
        pos += dim_homogeneous(ell, deg)
    col = 0
    for e, el in gens:
        gdeg = d - e
        if gdeg < 0:
            continue
        src_degs = space.block_degrees(e)
        per_block = []
        for j, poly in enumerate(el):
            if src_degs[j] < 0 or poly.is_zero():
                per_block.append(None)
                continue
            idxmap = monomial_index(ell, src_degs[j])
            src_idx = np.array([idxmap[mo] for mo in poly.terms], dtype=np.int64)
            vals = np.array([_coeff_mod(c, p) for c in poly.terms.values()], dtype=np.int64)
            per_block.append((src_idx, vals, src_degs[j]))
        for mono in monomial_basis(ell, gdeg):
            for j, blk in enumerate(per_block):
                if blk is None:
                    continue
                src_idx, vals, sdeg = blk
                tab = shift_table(ell, sdeg, mono)
                E[tgt_offsets[j] + tab[src_idx], col] = vals
            col += 1
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
        E = eval_matrix_mod(self.tgt_space, self.gens, d, p)
        return E if cols is None else E[:, cols]

    def verify(self, element, d: int) -> bool:
        return combination_is_zero(self.gens, element)

    def known_rank(self, d: int):
        return self.image_dims.get(d)


@dataclass
class SweepResult:
    degrees: list  # degrees of the generators found in the window, in sweep order
    elements: list  # engine/space elements, aligned with degrees
    dims: dict  # degree -> exact piece dimension, for every degree swept
    stopped_early: bool


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
    representative passes `family.verify` exactly.

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
    stopped = False
    for d in range(lo, hi + 1):
        ncols = family.space.dim(d)
        if ncols == 0:
            dims[d] = 0
            continue
        n_d, new = _degree_step(family, gens, d, ncols, (hints or {}).get(d, ()))
        dims[d] = n_d
        gens.extend((d, el) for el in new)
        if stop is not None and stop(gens):
            stopped = True
            break
    found = gens[known:]
    return SweepResult(
        degrees=[d for d, _ in found],
        elements=[el for _, el in found],
        dims=dims,
        stopped_early=stopped,
    )


def _degree_step(family, gens, d: int, ncols: int, hints_d=()):
    """(piece dimension, new generators) at degree d, given the generators below it."""
    # fast path: dim <= n0 (the constraint rank mod p bounds the kernel;
    # a known rank gives it exactly) and dim >= the certified eval rank
    # (the span of verified-member multiples); equality pins the dimension
    # with no kernel.  Over F_p, p is the field's prime and n0 is exact.
    field = family.field
    primes = _primes(field)

    def build(p):
        return family.build_mod(d, p)

    candidate = None  # an exact kernel candidate, once taken
    rows = None  # row pivots P of the eval matrix mod p0, once taken
    rank = family.known_rank(d)
    if rank is None and len(primes) > 1:
        # the eval image C mod p0 projects onto the coordinates P
        # isomorphically, so V = C + span(e_j, j not in P), and C lies in
        # the kernel: the constraint matrix needs ranking only on the
        # other columns, and n0 = |P| + (ncols - |P| - rank) is the
        # ncols - rank_p0(A) of a full elimination.  n0 == |P| certifies
        # the degree: dim >= rank_Q(E) >= |P| (the columns of E are
        # verified members), and full column rank mod p0 on the other
        # columns makes A injective over Q on their span, so dim <= |P|.
        p0 = _eval_prime(gens, primes)
        rows = _eval_row_pivots(family.space, gens, d, p0)
        rank = rank_mod(family.build_mod(d, p0, np.setdiff1d(np.arange(ncols), rows)), p0)
    elif rank is None:
        # at the field's prime the reduced elimination costs about what
        # the rank does, and its kernel serves a generator degree too
        candidate = _certified_kernel(build, ncols, field, lambda *cand: cand)
        rank = ncols - len(candidate[0])
    n0 = ncols - rank
    if n0 == 0 or rows is not None and n0 == len(rows):
        return n0, []
    rank_eval, p0, E = _certified_eval_rank(family.space, gens, d, field, n0, None if rows is None else len(rows))
    if rank_eval == n0:
        return n0, []
    if hints_d:
        chosen = _try_hinted_generators(family, gens, d, hints_d, n0, rank_eval, E, p0)
        if chosen is not None:
            return n0, chosen
    # apparent generator degree: take a kernel candidate and select new
    # generators from it; the piece dimension is then the eval rank plus
    # their number, both sides certified (mod-p ranks bound the rational
    # ranks from below, and the representatives are exhibited members)

    def select(vectors, _, exact):
        n_d = len(vectors)
        if rank_eval == n_d:
            return n_d, []
        # pick representatives at a prime whose eval rank is the certified
        # one, as every rank at an exact candidate's prime is; the pivots
        # of [Ep | K] left of Ep's columns are the pivots of Ep
        for p in primes:
            try:
                Ep = E if p == p0 else eval_matrix_mod(family.space, gens, d, p)
                Kmod = np.zeros((n_d, ncols), dtype=np.int64)
                for i, v in enumerate(vectors):
                    for j, x in enumerate(v):
                        if x:
                            Kmod[i, j] = _coeff_mod(x, p)
            except ZeroDivisionError:
                continue
            _, aug_pivots = rref_mod(np.hstack([Ep, Kmod.T]), p, reduced=False)
            picked = [vectors[c - Ep.shape[1]] for c in aug_pivots if c >= Ep.shape[1]]
            if len(aug_pivots) - len(picked) != rank_eval or len(picked) != n_d - rank_eval:
                continue
            new = [normalize_element(family.space.element_from_coords(field, d, v)) for v in picked]
            if not exact and not all(family.verify(el, d) for el in new):
                return None
            return rank_eval + len(new), new
        raise SolverError("no ladder prime reproduced the certified eval rank")

    if candidate is not None:
        return select(*candidate)
    return _certified_kernel(build, ncols, field, select)


def _try_hinted_generators(family, gens, d, hints_d, n0, rank_eval, E, p0):
    """Fill the quotient with caller-supplied exact elements if possible.

    Returns the selected new generators, or None when the hints do not
    span the whole cokernel (the caller then falls back to kernel
    reconstruction).  Exactness: each selected hint is verified as a
    member, the eval rank is already certified, and the mod-p pivot
    count bounds the rational independence from below while n0 bounds
    the piece dimension from above.
    """
    cols = []
    valid = []
    for el in hints_d:
        if not family.verify(el, d):
            continue
        try:
            cols.append(family.space.flatten_mod(el, d, p0))
        except ZeroDivisionError:
            return None
        valid.append(el)
    if not valid:
        return None
    H = np.stack(cols, axis=1)
    aug = np.hstack([E, H]) if E.shape[1] else H
    _, pivots = rref_mod(aug, p0, reduced=False)
    chosen = [valid[c - E.shape[1]] for c in pivots if c >= E.shape[1]]
    if rank_eval + len(chosen) != n0:
        return None
    return [normalize_element(el) for el in chosen]


def _eval_row_pivots(tgt_space: TwistSpace, gens, d: int, p: int):
    """Row pivots of the eval matrix of `gens` at degree d mod p.

    The image mod p projects isomorphically onto these coordinates.  One
    pivots-only elimination of the transposed matrix gives them, and the
    matrix is dropped on return.
    """
    if not TwistSpace(tgt_space.ell, tuple(e for e, _ in gens)).dim(d):
        return []
    return rref_mod(eval_matrix_mod(tgt_space, gens, d, p).T, p, reduced=False)[1]


def _certified_eval_rank(tgt_space: TwistSpace, gens, d: int, field, upper, rank=None):
    """Exact rank over `field` of the evaluation map of `gens` at degree d.

    Returns (rank, p0, E0): E0 is the eval matrix mod p0, the prime of
    `_eval_prime`, where the rank is taken first (`rank`, when the caller
    already has it mod p0).  That rank bounds the rank over `field` from
    below, so it is exact when it reaches `upper` (an upper bound the
    caller knows, or None) or the number of columns, or when p0 is the
    field's own prime.  Otherwise the rank is certified by exhibiting the
    kernel, lifted from the ladder primes with E0 as the matrix at p0:
    every candidate relation must vanish exactly.
    """
    primes = _primes(field)
    p0 = _eval_prime(gens, primes)
    src = TwistSpace(tgt_space.ell, tuple(e for e, _ in gens))
    ncols = src.dim(d)
    if ncols == 0:
        return 0, p0, np.zeros((tgt_space.dim(d), 0), dtype=np.int64)
    E0 = eval_matrix_mod(tgt_space, gens, d, p0)
    if rank is None:
        rank = rank_mod(E0, p0)
    if rank in (upper, ncols) or len(primes) == 1:
        return rank, p0, E0

    def accept(vectors, *_):
        if all(combination_is_zero(gens, src.element_from_coords(field, d, v)) for v in vectors):
            return ncols - len(vectors)
        return None

    def build(p):
        return E0 if p == p0 else eval_matrix_mod(tgt_space, gens, d, p)

    return _certified_kernel(build, ncols, field, accept), p0, E0


# ---------------------------------------------------------------------------
# public API: minimal generators and the Saito criterion
# ---------------------------------------------------------------------------


@dataclass
class GeneratorSet:
    """Minimal generators of a log module within a degree window."""

    arrangement: Arrangement
    kind: str
    order: int
    degrees: list
    representatives: list  # CoeffVector, aligned with degrees
    elements: list
    dims: dict
    degree_bound_used: tuple
    engine: object
    stopped_early: bool = False

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
    the monomial multiples of the generators already found.

    `hints` (CoeffVectors tried before reconstruction at their degree)
    are read by the ambient engine, so with engine "auto" they select it;
    hints with engine "relative" or a `base` raise SolverError.
    """
    if degree_range is None:
        degree_range = default_degree_range(A, kind)
    if hints and (engine == "relative" or base is not None):
        raise SolverError("hints need the ambient engine, not engine 'relative' or a base")
    eng = pick_engine(A, kind, order, "ambient" if hints else engine, base=base)
    hint_map = {}
    for cv in hints or ():
        hint_map.setdefault(cv.degree, []).append(eng.element_from_cv(cv))
    res = sweep_minimal_generators(eng, degree_range, hints=hint_map)
    return _generator_set(A, kind, order, eng, res, tuple(degree_range), False)


@dataclass
class SaitoResult:
    free: bool
    exponents: list | None
    constant: object | None
    generators: GeneratorSet | None
    reason: str

    def __bool__(self):
        return self.free


def saito_check(A: Arrangement, degree_bound=None, engine: str = "auto") -> SaitoResult:
    """Freeness certificate via the determinant criterion.

    Sweeps minimal generators of the derivation module; once ell
    generators with degree sum deg Q(A, m) are found, their coefficient
    determinant is compared with c * Q(A, m) by exact polynomial
    division.  Success certifies freeness with the generator degrees as
    exponents; a completed sweep without success certifies non-freeness.
    """
    if A.essential_rank != A.ell:
        raise SolverError("saito_check needs an essential arrangement; essentialize first")
    ell = A.ell
    degQ = A.deg_Q()
    hi = degQ if degree_bound is None else degree_bound
    eng = pick_engine(A, "D", 1, engine)
    constant = None

    def stop(gens):
        nonlocal constant
        if len(gens) > ell:
            return True
        if len(gens) == ell and sum(e for e, _ in gens) == degQ:
            constant = _saito_constant(A, [eng.to_coeffvector(el, e) for e, el in gens])
        return constant is not None

    res = sweep_minimal_generators(eng, (0, hi), stop=stop)
    rng = (0, max(res.dims)) if res.stopped_early else (0, hi)
    gs = _generator_set(A, "D", 1, eng, res, rng, res.stopped_early and constant is None)
    if constant is not None:
        return SaitoResult(True, sorted(res.degrees), constant, gs, "determinant matches Q")
    if res.stopped_early:
        reason = f"more than {ell} minimal generators"
    elif degree_bound is None:
        reason = "no Saito basis; arrangement not free"
    else:
        reason = "not free up to bound"
    return SaitoResult(False, None, None, gs, reason)


def _generator_set(A, kind, order, eng, res: SweepResult, rng, stopped):
    return GeneratorSet(
        arrangement=A,
        kind=kind,
        order=order,
        degrees=res.degrees,
        representatives=[eng.to_coeffvector(el, d) for d, el in zip(res.degrees, res.elements)],
        elements=res.elements,
        dims=res.dims,
        degree_bound_used=rng,
        engine=eng,
        stopped_early=stopped,
    )


def _saito_constant(A: Arrangement, cvs):
    """c with det(coefficient matrix) = c * Q(A, m), or None."""
    from .poly import poly_det, divide_by_linear

    entries = [list(cv.numerators) for cv in cvs]
    det = poly_det(entries)
    if det.is_zero():
        return None
    f = det
    for alpha, m in zip(A.forms, A.mult):
        for _ in range(m):
            q, r = divide_by_linear(f, alpha)
            if not r.is_zero():
                return None
            f = q
    if f.is_zero() or f.total_degree() != 0:
        return None
    return f.coeff((0,) * A.ell)


def free_piece_dimension(ell: int, exponents, d: int) -> int:
    """Graded dimension of a free module with the given generator degrees."""
    return sum(dim_homogeneous(ell, d - e) for e in exponents)


def omega_generators_from_free(A: Arrangement, saito_result: SaitoResult) -> GeneratorSet:
    """Minimal 1-form generators of a Saito-certified free arrangement.

    The dual basis of the derivation basis generates the forms freely
    (its numerator determinant is a nonzero multiple of Q^{ell-1}), so no
    sweep is required; the dimension table is the free Hilbert function.
    """
    if not saito_result.free:
        raise SolverError("needs a Saito-certified free arrangement")
    base = free_base_from_saito(A, list(range(A.n)), saito_result)
    degrees = [-e for e in base.exponents]
    reps = [
        CoeffVector("O", 1, -e, base.omega_numerators[i])
        for i, e in enumerate(base.exponents)
    ]
    lo, hi = default_degree_range(A, "O")
    dims = {d: free_piece_dimension(A.ell, degrees, d) for d in range(lo, hi + 1)}
    order_idx = sorted(range(len(degrees)), key=lambda i: degrees[i])
    return GeneratorSet(
        arrangement=A,
        kind="O",
        order=1,
        degrees=[degrees[i] for i in order_idx],
        representatives=[reps[i] for i in order_idx],
        elements=[tuple(reps[i].numerators) for i in order_idx],
        dims=dims,
        degree_bound_used=(lo, hi),
        engine=AmbientEngine(A, "O", 1),
        stopped_early=False,
    )
