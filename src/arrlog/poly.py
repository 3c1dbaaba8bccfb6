"""Multivariate polynomial arithmetic over an exact field.

Polynomials are dicts keyed by exponent tuples.  All of the degreewise
solving works through dense coefficient vectors over `monomial_basis`,
which lists the monomials of a fixed total degree in descending
lexicographic order.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, lcm
from operator import add

from .fields import check_same_field


@lru_cache(maxsize=None)
def monomial_basis(ell: int, d: int):
    """All exponent tuples of length ell with total degree d, descending lex."""
    if ell < 1:
        raise ValueError("need at least one variable")
    if d < 0:
        return ()

    def gen(nvars, total):
        if nvars == 1:
            yield (total,)
            return
        for first in range(total, -1, -1):
            for rest in gen(nvars - 1, total - first):
                yield (first,) + rest

    return tuple(gen(ell, d))


@lru_cache(maxsize=None)
def monomial_index(ell: int, d: int):
    """Monomial -> position map for the basis of degree d."""
    return {m: i for i, m in enumerate(monomial_basis(ell, d))}


def dim_homogeneous(ell: int, d: int) -> int:
    """dim of the degree-d graded piece of a polynomial ring in ell variables."""
    if d < 0:
        return 0
    return comb(d + ell - 1, ell - 1)


def _mono_mul(a, b):
    return tuple(map(add, a, b))


def _reduced(field, acc: dict) -> dict:
    """Terms summed with plain `+` and `*`, brought back into the field."""
    p = field.char
    return {m: c % p for m, c in acc.items()} if p else acc


class Poly:
    """Homogeneous-friendly sparse polynomial."""

    __slots__ = ("field", "ell", "terms")

    def __init__(self, field, ell, terms=None):
        self.field = field
        self.ell = ell
        self.terms = {}
        if terms:
            for mono, c in terms.items():
                if c:
                    self.terms[mono] = c

    # -- constructors ------------------------------------------------
    @classmethod
    def zero(cls, field, ell):
        return cls(field, ell)

    @classmethod
    def const(cls, field, ell, c):
        c = field.of(c)
        return cls(field, ell, {(0,) * ell: c} if c else None)

    @classmethod
    def variable(cls, field, ell, i):
        mono = tuple(1 if j == i else 0 for j in range(ell))
        return cls(field, ell, {mono: field.one})

    # -- queries -----------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, mono):
        return self.terms.get(tuple(mono), self.field.zero)

    def total_degree(self):
        """Max total degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def homogeneous_degree(self):
        if not self.is_homogeneous():
            raise ValueError("not homogeneous")
        return self.total_degree()

    # -- arithmetic ---------------------------------------------------
    def _check(self, other):
        check_same_field(self.field, other.field)
        if self.ell != other.ell:
            raise ValueError("different variable counts")

    def __add__(self, other):
        self._check(other)
        f = self.field
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = f.add(terms.get(m, f.zero), c)
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return Poly(f, self.ell, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        f = self.field
        return Poly(f, self.ell, {m: f.neg(c) for m, c in self.terms.items()})

    def scale(self, c):
        f = self.field
        c = f.of(c)
        if not c:
            return Poly.zero(f, self.ell)
        return Poly(f, self.ell, {m: f.mul(c, x) for m, x in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        self._check(other)
        f = self.field
        out = {}
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = _mono_mul(m1, m2)
                s = f.add(out.get(m, f.zero), f.mul(c1, c2))
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return Poly(f, self.ell, out)

    __rmul__ = scale

    def times_monomial(self, mono, c=None):
        f = self.field
        c = f.one if c is None else f.of(c)
        if not c:
            return Poly.zero(f, self.ell)
        mono = tuple(mono)
        return Poly(f, self.ell, {_mono_mul(m, mono): f.mul(c, x) for m, x in self.terms.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = Poly.const(self.field, self.ell, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.ell == other.ell
            and self.terms == other.terms
        )

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms, reverse=True):
            c = self.terms[m]
            mono = "*".join(
                f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(m) if e
            )
            cs = self.field.format(c)
            bits.append(f"{cs}*{mono}" if mono else cs)
        return " + ".join(bits)

    # -- coefficient vectors ------------------------------------------
    @classmethod
    def from_vector(cls, field, ell, d, v):
        basis = monomial_basis(ell, d)
        return cls(field, ell, {m: field.of(c) for m, c in zip(basis, v) if c})


class Pullback:
    """The ring map x_k -> images[k], with the image of each monomial cached.

    The image of a monomial m is built once and kept as long as the
    Pullback, so every polynomial mapped through one Pullback shares the
    images of its monomials.  With i the variable of m whose image has
    the most terms, image(m) = image(m without x_i) * image(x_i^m_i), and
    image(x_i^e) = image(x_i^(e-1)) * images[i]: a restriction chart maps
    one variable to a linear form and every other to a single variable,
    so all but the powers of that form are cheap products by one term.
    """

    __slots__ = ("field", "ell", "tgt_ell", "_images", "_order", "_cache")

    def __init__(self, images: list[Poly]):
        if not images:
            raise ValueError("empty substitution")
        self.field = images[0].field
        self.ell = len(images)
        self.tgt_ell = images[0].ell
        for q in images:
            check_same_field(self.field, q.field)
            if q.ell != self.tgt_ell:
                raise ValueError("images in different rings")
        self._images = images
        self._order = sorted(range(self.ell), key=lambda i: -len(images[i].terms))
        self._cache = {(0,) * self.ell: Poly.const(self.field, self.tgt_ell, 1)}

    @classmethod
    def linear(cls, field, rows) -> "Pullback":
        """f -> f(M y) for the matrix M with these rows: x_k -> sum_t M[k][t] y_t."""
        n = len(rows[0]) if rows else 0
        units = [tuple(1 if s == t else 0 for s in range(n)) for t in range(n)]
        return cls([Poly(field, n, {units[t]: c for t, c in enumerate(r) if c}) for r in rows])

    def _monomial(self, m) -> Poly:
        """The image of the monomial m."""
        img = self._cache.get(m)
        if img is None:
            img = self._cache[m] = self._build(m)
        return img

    def _build(self, m) -> Poly:
        i = next(i for i in self._order if m[i])
        power = (0,) * i + (m[i],) + (0,) * (self.ell - i - 1)
        if m == power:
            return self._monomial(m[:i] + (m[i] - 1,) + m[i + 1 :]) * self._images[i]
        return self._monomial(m[:i] + (0,) + m[i + 1 :]) * self._monomial(power)

    def __call__(self, f: Poly) -> Poly:
        check_same_field(self.field, f.field)
        if f.ell != self.ell:
            raise ValueError("polynomial outside the source ring")
        acc = {}
        get = acc.get
        for m, c in f.terms.items():
            for tm, tc in self._monomial(m).terms.items():
                acc[tm] = get(tm, 0) + c * tc
        return Poly(self.field, self.tgt_ell, _reduced(self.field, acc))


class LinearForm:
    """A nonzero linear form, stored as its coefficient vector."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = tuple(field.of(c) for c in coeffs)
        if not any(self.coeffs):
            raise ValueError("zero linear form")

    @property
    def ell(self):
        return len(self.coeffs)

    def pivot(self) -> int:
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        raise AssertionError

    def as_poly(self) -> Poly:
        f = self.field
        ell = self.ell
        return Poly(
            f,
            ell,
            {
                tuple(1 if j == i else 0 for j in range(ell)): c
                for i, c in enumerate(self.coeffs)
                if c
            },
        )

    def proportional_to(self, other: "LinearForm") -> bool:
        if self.field != other.field or self.ell != other.ell:
            return False
        f = self.field
        i = self.pivot()
        if not other.coeffs[i]:
            return False
        ratio = f.div(other.coeffs[i], self.coeffs[i])
        return all(f.mul(ratio, a) == b for a, b in zip(self.coeffs, other.coeffs))

    def __eq__(self, other):
        return (
            isinstance(other, LinearForm)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        return "(" + ", ".join(self.field.format(c) for c in self.coeffs) + ")"


def divide_by_linear(f: Poly, alpha: LinearForm):
    """Exact division with remainder by a linear form.

    Returns (q, r) with f = q*alpha + r and r free of the pivot variable.
    """
    check_same_field(f.field, alpha.field)
    if f.ell != alpha.ell:
        raise ValueError("variable count mismatch")
    fld = f.field
    k = alpha.pivot()
    a_k = alpha.coeffs[k]
    # split f by the pivot exponent: f = sum_t f_t * x_k^t
    layers: dict[int, dict] = {}
    for m, c in f.terms.items():
        t = m[k]
        m0 = m[:k] + (0,) + m[k + 1 :]
        layers.setdefault(t, {})[m0] = c
    if not layers:
        return Poly.zero(fld, f.ell), Poly.zero(fld, f.ell)
    top = max(layers)
    # L = alpha - a_k x_k (no pivot variable)
    L = Poly(
        fld,
        f.ell,
        {
            tuple(1 if j == i else 0 for j in range(f.ell)): c
            for i, c in enumerate(alpha.coeffs)
            if c and i != k
        },
    )
    inv_ak = fld.inv(a_k)
    q_layers: dict[int, Poly] = {}
    carry = Poly.zero(fld, f.ell)  # q_s * L propagated downward
    for s in range(top, 0, -1):
        f_s = Poly(fld, f.ell, layers.get(s, {}))
        q_sm1 = (f_s - carry).scale(inv_ak)
        q_layers[s - 1] = q_sm1
        carry = q_sm1 * L
    r = Poly(fld, f.ell, layers.get(0, {})) - carry
    q = Poly.zero(fld, f.ell)
    unit = tuple(1 if j == k else 0 for j in range(f.ell))
    for t, qt in q_layers.items():
        if qt:
            shift = tuple(e * t for e in unit)
            q = q + qt.times_monomial(shift)
    return q, r


def _int_vector(field, vec) -> list:
    """vec as ints, up to a nonzero factor: residues over F_p, cleared denominators over Q."""
    if field.char:
        return [int(c) for c in vec]
    den = lcm(*(c.denominator for c in vec))
    return [int(c * den) for c in vec]


@lru_cache(maxsize=256)
def _int_linear_powers(coeffs: tuple, k: int, top: int):
    """Integer expansions of (-L)^t for L = alpha - a_k x_k, t <= top."""
    ell = len(coeffs)
    neg = {}
    for i, a in enumerate(coeffs):
        if a and i != k:
            neg[tuple(1 if j == i else 0 for j in range(ell))] = -a
    pows = [{(0,) * ell: 1}]
    for _ in range(top):
        prev = pows[-1]
        nxt = {}
        for m1, c1 in prev.items():
            for m2, c2 in neg.items():
                key = tuple(x + y for x, y in zip(m1, m2))
                nxt[key] = nxt.get(key, 0) + c1 * c2
        pows.append({m: c for m, c in nxt.items() if c})
    return pows


def divisible_by_linear_power(f: Poly, alpha: LinearForm, m: int) -> bool:
    """True iff alpha^m divides f exactly.

    With k the pivot of alpha and L = alpha - a_k x_k, substituting
    x_k = (alpha - L) / a_k and clearing a_k powers writes a_k^E f as a
    polynomial in alpha over the other variables (E the top x_k
    exponent); alpha^m divides f iff its coefficients of alpha^0 ..
    alpha^(m-1) vanish.  f and alpha are scaled to integers (residues
    over F_p), so the expansion is integer arithmetic, with the power of
    alpha kept in the pivot slot of each monomial.
    """
    check_same_field(f.field, alpha.field)
    if f.is_zero():
        return True
    field = f.field
    a = tuple(_int_vector(field, alpha.coeffs))
    k = alpha.pivot()
    E = max(mono[k] for mono in f.terms)
    pows = _int_linear_powers(a, k, E)
    acc: dict = {}
    get = acc.get
    for mono, c in zip(f.terms, _int_vector(field, f.terms.values())):
        e = mono[k]
        scale = c * a[k] ** (E - e)
        for s in range(min(e + 1, m)):
            lead = mono[:k] + (s,) + mono[k + 1 :]
            cs = scale * comb(e, s)
            for pm, pc in pows[e - s].items():
                key = _mono_mul(lead, pm)
                acc[key] = get(key, 0) + cs * pc
    return not any(_reduced(field, acc).values())


def sum_of_products(field, ell, pairs) -> Poly:
    """The sum of a * b over the (Poly a, Poly b) pairs, built in one term dict."""
    acc = {}
    get = acc.get
    for a, b in pairs:
        for m1, c1 in a.terms.items():
            for m2, c2 in b.terms.items():
                m = _mono_mul(m1, m2)
                acc[m] = get(m, 0) + c1 * c2
    return Poly(field, ell, _reduced(field, acc))


def product(polys, field=None, ell=None):
    it = list(polys)
    if not it:
        if field is None or ell is None:
            raise ValueError("empty product needs explicit field/ell")
        return Poly.const(field, ell, 1)
    out = it[0]
    for p in it[1:]:
        out = out * p
    return out


def poly_det(entries):
    """Determinant of a small square matrix of polynomials (cofactor)."""
    n = len(entries)
    if n == 0:
        raise ValueError("empty matrix")
    if n == 1:
        return entries[0][0]
    f = entries[0][0].field
    ell = entries[0][0].ell
    out = Poly.zero(f, ell)
    for j in range(n):
        e = entries[0][j]
        if e.is_zero():
            continue
        minor = [[entries[i][k] for k in range(n) if k != j] for i in range(1, n)]
        sub = poly_det(minor)
        term = e * sub
        out = out + (term if j % 2 == 0 else -term)
    return out


# ---------------------------------------------------------------------------
# divisibility constraints: linear conditions for alpha^m | f on S_N
# ---------------------------------------------------------------------------
#
# The rows and their entries are derived in the `divisibility` module,
# which builds the layout once per (ell, pivot, m, N) and fills dense
# tables mod p from it; here the same layout is evaluated over any field.


def divisibility_row_data(alpha: LinearForm, m: int, degree: int):
    """Sparse rows whose kernel on S_degree is {f : alpha^m | f}.

    Row indices are (t, reduced monomial) pairs for t < m flattened in a
    deterministic order; the return value is (row_count, columns) where
    columns[j] lists (row_index, coeff) for the j-th monomial of
    monomial_basis(ell, degree), zero coefficients left out.
    """
    from .divisibility import divisibility_pattern

    if m < 1:
        raise ValueError("multiplicity must be positive")
    if degree < 0:
        return 0, []
    fld = alpha.field
    k = alpha.pivot()
    pat = divisibility_pattern(alpha.ell, k, m, degree)

    def powers(x):
        out = [fld.one]
        for _ in range(degree):
            out.append(fld.mul(out[-1], x))
        return out

    inv_pows = powers(fld.inv(alpha.coeffs[k]))
    neg_pows = [powers(fld.neg(c)) for i, c in enumerate(alpha.coeffs) if i != k]
    values = []
    for c, e, beta in zip(pat.coeff.tolist(), pat.pivot_exp.tolist(), pat.beta.tolist()):
        v = fld.mul(fld.of(c), inv_pows[e])
        for pw, b in zip(neg_pows, beta):
            v = fld.mul(v, pw[b])
        values.append(v)
    columns = [[] for _ in range(pat.ncols)]
    for cell, v in zip(pat.cells.tolist(), pat.value_of.tolist()):
        if values[v]:
            row, col = divmod(cell, pat.ncols)
            columns[col].append((row, values[v]))
    return pat.nrows, columns
