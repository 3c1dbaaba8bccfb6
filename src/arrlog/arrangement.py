"""Central hyperplane arrangements over an exact field.

An arrangement is an ordered list of pairwise independent linear forms
with positive integer multiplicities (all 1 for a simple arrangement).
Forms are canonicalized on validation: primitive integer coefficients
with positive leading entry over Q, leading coefficient 1 over F_p.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .fields import QQ, Rationals
from .linalg import Matrix, rank, rref
from .poly import LinearForm, Pullback


class ArrangementError(ValueError):
    pass


class ZeroForm(ArrangementError):
    pass


class DuplicateHyperplane(ArrangementError):
    pass


def canonicalize_form(form: LinearForm) -> LinearForm:
    """Scale a form to its canonical representative."""
    f = form.field
    if isinstance(f, Rationals):
        den = 1
        for c in form.coeffs:
            den = den // gcd(den, c.denominator) * c.denominator
        ints = [c * den for c in form.coeffs]
        g = 0
        for c in ints:
            g = gcd(g, c.numerator)
        ints = [c / g for c in ints]
        for c in ints:
            if c:
                if c < 0:
                    ints = [-x for x in ints]
                break
        return LinearForm(f, ints)
    lead = form.coeffs[form.pivot()]
    inv = f.inv(lead)
    return LinearForm(f, [f.mul(inv, c) for c in form.coeffs])


class Arrangement:
    """Validated central arrangement, immutable after construction."""

    __slots__ = ("field", "ell", "forms", "mult", "_rank")

    def __init__(self, field, ell, forms, mult, _rank=None):
        self.field = field
        self.ell = ell
        self.forms = tuple(forms)
        self.mult = tuple(mult)
        self._rank = _rank

    @property
    def n(self) -> int:
        return len(self.forms)

    def __len__(self):
        return len(self.forms)

    @property
    def essential_rank(self) -> int:
        if self._rank is None:
            if not self.forms:
                self._rank = 0
            else:
                self._rank = rank(Matrix(self.field, [f.coeffs for f in self.forms]))
        return self._rank

    def is_essential(self) -> bool:
        return self.essential_rank == self.ell

    def is_simple(self) -> bool:
        return all(m == 1 for m in self.mult)

    def deg_Q(self) -> int:
        return sum(self.mult)

    def delete(self, i: int) -> "Arrangement":
        if not 0 <= i < self.n:
            raise IndexError(f"hyperplane index {i} out of range")
        forms = self.forms[:i] + self.forms[i + 1 :]
        mult = self.mult[:i] + self.mult[i + 1 :]
        return Arrangement(self.field, self.ell, forms, mult)

    def with_multiplicities(self, mult) -> "Arrangement":
        mult = tuple(int(m) for m in mult)
        if len(mult) != self.n or any(m < 1 for m in mult):
            raise ArrangementError("multiplicity list must be positive, one per hyperplane")
        return Arrangement(self.field, self.ell, self.forms, mult, self._rank)

    def add_hyperplane(self, form: LinearForm, m: int = 1) -> "Arrangement":
        form = canonicalize_form(form)
        for f in self.forms:
            if f.proportional_to(form):
                raise DuplicateHyperplane("new hyperplane already present")
        return Arrangement(self.field, self.ell, self.forms + (form,), self.mult + (m,))

    def restrict(self, i: int) -> "Restriction":
        return restrict(self, i)

    def essentialize(self):
        """Rewrite in coordinates on the span of the forms.

        Returns (essential arrangement of rank r in r variables, change
        matrix C) where row t of C is the coordinate form expressing the
        new variable y_t in terms of x.
        """
        R, pivots, r = rref(Matrix(self.field, [f.coeffs for f in self.forms]))
        # R's pivot columns are unit vectors, so each form f is sum_t f[pivots[t]] * R.rows[t]
        new_forms = [[f.coeffs[c] for c in pivots] for f in self.forms]
        ess = validate(self.field, new_forms, self.mult, ell=r)
        return ess, Matrix(self.field, R.rows[:r])

    def __repr__(self):
        mult = "" if self.is_simple() else f", mult={list(self.mult)}"
        return f"Arrangement({self.field!r}, ell={self.ell}, n={self.n}{mult})"


def validate(field, vectors, mult=None, ell=None) -> Arrangement:
    """Build a validated arrangement from raw coefficient vectors.

    Rejects zero forms and proportional duplicates; canonicalizes each
    form.  `vectors` may be empty, in which case ell must be given.
    """
    vectors = [list(v) for v in vectors]
    if ell is None:
        if not vectors:
            raise ArrangementError("empty arrangement needs explicit dimension")
        ell = len(vectors[0])
    forms = []
    for v in vectors:
        if len(v) != ell:
            raise ArrangementError("inconsistent coefficient lengths")
        coeffs = [field.of(x) for x in v]
        if not any(coeffs):
            raise ZeroForm("zero linear form")
        forms.append(canonicalize_form(LinearForm(field, coeffs)))
    for i in range(len(forms)):
        for j in range(i + 1, len(forms)):
            if forms[i].proportional_to(forms[j]):
                raise DuplicateHyperplane(f"hyperplanes {i} and {j} are parallel")
    if mult is None:
        mult = [1] * len(forms)
    mult = [int(m) for m in mult]
    if len(mult) != len(forms) or any(m < 1 for m in mult):
        raise ArrangementError("bad multiplicity list")
    return Arrangement(field, ell, forms, mult)


@dataclass
class Restriction:
    """Simple restriction of an arrangement to one of its hyperplanes.

    embedding rows span the hyperplane (coordinates y; points x = y @ embedding);
    the embedding is the identity off the pivot k of the hyperplane's
    form, so the chart keeps the coordinates x_t, t != k, in order.
    image_info[j] = (class index in restricted, scalar s) with
    pullback(form_j) = s * restricted.form_class; the scalar product over
    all j is kappa, so Q(A') pulled back equals kappa * prod(forms^ziegler_mult).
    """

    arrangement: Arrangement
    restricted: Arrangement
    index: int
    embedding: Matrix
    image_info: list
    ziegler_mult: list
    kappa: object

    @cached_property
    def pullback(self) -> Pullback:
        """f -> f(y @ embedding): polynomials of the ambient space to the chart y.

        Built on first use; every polynomial restricted through this
        Restriction shares its cached monomial images.
        """
        return Pullback.linear(self.arrangement.field, self.embedding.transpose().rows)


def restrict(A: Arrangement, i: int) -> Restriction:
    """Restrict A to its i-th hyperplane, collapsing parallel traces."""
    if not 0 <= i < A.n:
        raise IndexError(f"hyperplane index {i} out of range")
    field = A.field
    alpha = A.forms[i]
    k = alpha.pivot()
    a = alpha.coeffs
    inv = field.inv(a[k])
    rows = []
    for t in range(A.ell):
        if t == k:
            continue
        # x_t direction adjusted to lie in ker(alpha)
        row = [field.zero] * A.ell
        row[t] = field.one
        row[k] = field.neg(field.mul(inv, a[t]))
        rows.append(row)
    B = Matrix(field, rows)
    # pullback of form alpha_j onto H: y -> alpha_j(y @ B) has coefficients B @ a_j
    images = []
    for j, f in enumerate(A.forms):
        images.append(None if j == i else B.mul_vec(list(f.coeffs)))
    classes = []  # canonical forms
    class_mult = []
    image_info = [None] * A.n
    kappa = field.one
    for j, c in enumerate(images):
        if c is None:
            continue
        form = LinearForm(field, c)
        canon = canonicalize_form(form)
        scale = _proportionality_scale(canon, form)
        idx = None
        for t, existing in enumerate(classes):
            if existing == canon:
                idx = t
                break
        if idx is None:
            classes.append(canon)
            class_mult.append(0)
            idx = len(classes) - 1
        class_mult[idx] += A.mult[j]
        image_info[j] = (idx, scale)
        for _ in range(A.mult[j]):
            kappa = field.mul(kappa, scale)
    restricted = Arrangement(field, A.ell - 1, classes, [1] * len(classes))
    return Restriction(
        arrangement=A,
        restricted=restricted,
        index=i,
        embedding=B,
        image_info=image_info,
        ziegler_mult=class_mult,
        kappa=kappa,
    )


def _proportionality_scale(canon: LinearForm, form: LinearForm):
    """Scalar s with form = s * canon."""
    f = canon.field
    k = canon.pivot()
    return f.div(form.coeffs[k], canon.coeffs[k])


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------


def parse_arrangement(text: str) -> Arrangement:
    """Parse the line-oriented arrangement format.

    Header lines `field Q` (or `field Fp <p>`) and `dim <ell>` with
    ell >= 1, then one hyperplane per line as ell field elements, with an
    optional trailing `*m` multiplicity.
    """
    from .fields import GF

    field = None
    ell = None
    vectors = []
    mult = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "field":
            try:
                if parts[1] in ("Q", "QQ"):
                    field = QQ
                elif parts[1] in ("Fp", "F") and len(parts) == 3:
                    field = GF(int(parts[2]))
                else:
                    raise ValueError("expected 'field Q' or 'field Fp <p>'")
            except (IndexError, ValueError) as exc:
                raise ArrangementError(f"line {lineno}: bad field declaration {line!r}: {exc}") from exc
            continue
        if parts[0] == "dim":
            if len(parts) != 2 or not parts[1].isdigit() or int(parts[1]) == 0:
                raise ArrangementError(f"line {lineno}: bad dimension {line!r}: expected a positive integer")
            ell = int(parts[1])
            continue
        if field is None or ell is None:
            raise ArrangementError(f"line {lineno}: field/dim headers must come first")
        m = 1
        if parts[-1].startswith("*"):
            if not parts[-1][1:].isdigit():
                raise ArrangementError(f"line {lineno}: bad multiplicity {parts[-1]!r}")
            m = int(parts[-1][1:])
            parts = parts[:-1]
        if len(parts) != ell:
            raise ArrangementError(
                f"line {lineno}: expected {ell} coefficients, got {len(parts)}"
            )
        try:
            vectors.append([field.parse(tok) for tok in parts])
        except (ValueError, ZeroDivisionError) as exc:
            raise ArrangementError(f"line {lineno}: {exc}") from exc
        mult.append(m)
    if field is None or ell is None:
        raise ArrangementError("missing field/dim headers")
    return validate(field, vectors, mult, ell=ell)


def format_arrangement(A: Arrangement) -> str:
    lines = []
    if isinstance(A.field, Rationals):
        lines.append("field Q")
    else:
        lines.append(f"field Fp {A.field.p}")
    lines.append(f"dim {A.ell}")
    for f, m in zip(A.forms, A.mult):
        row = " ".join(A.field.format(c) for c in f.coeffs)
        if m != 1:
            row += f" *{m}"
        lines.append(row)
    return "\n".join(lines) + "\n"
