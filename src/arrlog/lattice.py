"""Intersection lattice, Mobius function, characteristic polynomial,
and genericity certificates.

Flats are built level by level: each codim-k flat is intersected with
every hyperplane not already containing it, and the results are
deduplicated by the canonical echelon form of the span of their
defining forms.  This avoids enumerating hyperplane subsets.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arrangement import Arrangement, ArrangementError
from .linalg import Matrix, kernel_basis


class InLattice(ArrangementError):
    """The queried subspace is itself a flat of the arrangement."""


@dataclass
class Flat:
    """A lattice flat: intersection of the member hyperplanes."""

    codim: int
    members: frozenset
    key: tuple  # canonical echelon rows spanning the normal space
    mu: int = 0

    def basis(self, field):
        """Rows spanning the flat itself (kernel of the defining forms)."""
        if not self.key:
            ell = 0
        else:
            ell = len(self.key[0])
        if self.codim == 0:
            return Matrix.identity(field, ell)
        vecs = kernel_basis(Matrix(field, [list(r) for r in self.key]))
        return Matrix(field, vecs)

    def __repr__(self):
        return f"Flat(codim={self.codim}, members={sorted(self.members)})"


@dataclass
class Lattice:
    arrangement: Arrangement
    max_codim: int
    levels: list  # levels[k] = list of Flat with codim k

    def flats(self, codim: int):
        if codim > self.max_codim:
            raise ValueError("lattice not computed that deep")
        return self.levels[codim] if codim < len(self.levels) else []

    def all_flats(self):
        for level in self.levels:
            yield from level


class _Echelon:
    """Incremental echelon form for span membership tests."""

    def __init__(self, field):
        self.field = field
        self.rows = []  # normalized rows with distinct pivots, sorted
        self.pivots = []

    def reduce(self, vec):
        f = self.field
        v = list(vec)
        for p, row in zip(self.pivots, self.rows):
            if v[p]:
                c = v[p]
                v = [f.sub(a, f.mul(c, b)) for a, b in zip(v, row)]
        return v

    def contains(self, vec) -> bool:
        return not any(self.reduce(vec))

    def add(self, vec) -> bool:
        f = self.field
        v = self.reduce(vec)
        for p, x in enumerate(v):
            if x:
                inv = f.inv(x)
                v = [f.mul(inv, y) for y in v]
                # back-eliminate into existing rows
                for i, row in enumerate(self.rows):
                    if row[p]:
                        c = row[p]
                        self.rows[i] = [f.sub(a, f.mul(c, b)) for a, b in zip(row, v)]
                idx = 0
                while idx < len(self.pivots) and self.pivots[idx] < p:
                    idx += 1
                self.pivots.insert(idx, p)
                self.rows.insert(idx, v)
                return True
        return False

    def key(self):
        return tuple(tuple(r) for r in self.rows)


def span_key(field, vectors) -> tuple:
    e = _Echelon(field)
    for v in vectors:
        e.add(v)
    return e.key()


def intersection_lattice(A: Arrangement, max_codim=None) -> Lattice:
    """All flats of codimension <= max_codim, with Mobius values.

    Defaults to the full lattice (max_codim = essential rank).
    """
    field = A.field
    r = A.essential_rank
    if max_codim is None:
        max_codim = r
    max_codim = min(max_codim, r)
    top = Flat(codim=0, members=frozenset(), key=(), mu=1)
    levels = [[top]]
    form_vecs = [list(f.coeffs) for f in A.forms]
    for k in range(max_codim):
        seen = {}
        for X in levels[k]:
            base_rows = [list(row) for row in X.key]
            for i in range(A.n):
                if i in X.members:
                    continue
                e = _Echelon(field)
                for row in base_rows:
                    e.add(row)
                if not e.add(form_vecs[i]):
                    continue  # hyperplane contains X but was not listed; impossible
                key = e.key()
                if key in seen:
                    continue
                members = frozenset(
                    j for j in range(A.n) if e.contains(form_vecs[j])
                )
                seen[key] = Flat(codim=k + 1, members=members, key=key)
        level = sorted(seen.values(), key=lambda F: sorted(F.members))
        levels.append(level)
    # Mobius: mu(V) = 1 and sum over flats Z >= X of mu(Z) = 0;
    # Z >= X (Z contains X) iff members(Z) <= members(X).
    for k in range(1, len(levels)):
        for X in levels[k]:
            s = 0
            for kk in range(k):
                for Z in levels[kk]:
                    if Z.members <= X.members:
                        s += Z.mu
            X.mu = -s
    return Lattice(arrangement=A, max_codim=max_codim, levels=levels)


def characteristic_polynomial(A: Arrangement, lattice: Lattice | None = None):
    """chi(A, t) = sum over flats of mu(X) t^{dim X}, as coefficient list.

    Returns integer coefficients [c_0, c_1, ..., c_ell] with
    chi(t) = sum c_d t^d.
    """
    if lattice is None or lattice.max_codim < A.essential_rank:
        lattice = intersection_lattice(A)
    coeffs = [0] * (A.ell + 1)
    for X in lattice.all_flats():
        coeffs[A.ell - X.codim] += X.mu
    return coeffs


def poly_eval_int(coeffs, t: int) -> int:
    out = 0
    for c in reversed(coeffs):
        out = out * t + c
    return out


def flat_of_subspace(A: Arrangement, X_forms, lattice: Lattice | None = None):
    """The flat equal to the subspace cut out by X_forms, or None."""
    field = A.field
    key = span_key(field, [list(f.coeffs) for f in X_forms])
    codim = len(key)
    if lattice is None:
        lattice = intersection_lattice(A, max_codim=codim)
    if codim > lattice.max_codim:
        return None
    for F in lattice.flats(codim):
        if F.key == key:
            return F
    return None


def is_k_generic(X_forms, A: Arrangement, k: int, lattice: Lattice | None = None):
    """Certificate that the subspace cut out by X_forms is k-generic.

    k-generic: codim(X n Y) = codim X + codim Y for every flat Y of
    codimension at most k.  Returns (True, None) or (False, witness flat).
    Raises InLattice if X is itself a flat.
    """
    field = A.field
    X_forms = list(X_forms)
    base = _Echelon(field)
    for f in X_forms:
        base.add(list(f.coeffs))
    codim_x = len(base.pivots)
    if lattice is None or lattice.max_codim < min(k, A.essential_rank):
        lattice = intersection_lattice(A, max_codim=min(k, A.essential_rank))
    if flat_of_subspace(A, X_forms, lattice) is not None:
        raise InLattice("subspace is a flat of the arrangement")
    for kk in range(1, min(k, lattice.max_codim) + 1):
        for Y in lattice.flats(kk):
            e = _Echelon(field)
            for f in X_forms:
                e.add(list(f.coeffs))
            for row in Y.key:
                e.add(list(row))
            if len(e.pivots) != codim_x + Y.codim:
                return False, Y
    return True, None


def is_generic(X_forms, A: Arrangement, lattice: Lattice | None = None):
    """Fully generic: k-generic for k = ell - codim(X)."""
    field = A.field
    base = _Echelon(field)
    for f in X_forms:
        base.add(list(f.coeffs))
    k = A.ell - len(base.pivots)
    return is_k_generic(X_forms, A, k, lattice=lattice)
