"""Intersection lattice, Mobius function, characteristic polynomial,
and genericity certificates.

Flats are built level by level.  For a codim-k flat X, each form not
vanishing on X is restricted to X (dot products with an integer basis of
X); two hyperplanes give the same join X v H exactly when their
restrictions are proportional, so the joins of X are the classes of the
restrictions by direction, and each join's members are X's members plus
its class.  A flat is the intersection of its members, so flats are
deduplicated by members; the canonical echelon key of each distinct flat
is computed once.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import mul

from .arrangement import Arrangement, ArrangementError
from .linalg import Echelon
from .poly import _int_vector


class InLattice(ArrangementError):
    """The queried subspace is itself a flat of the arrangement."""


@dataclass
class Flat:
    """A lattice flat: intersection of the member hyperplanes."""

    codim: int
    members: frozenset
    key: tuple  # canonical echelon rows spanning the normal space
    mu: int = 0

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


def span_key(A: Arrangement, forms) -> tuple:
    """The echelon key of the span of linear forms on A's space."""
    e = Echelon(A.field, A.ell)
    for f in forms:
        e.add(f.coeffs)
    return e.key()


def _direction(field, vec) -> tuple:
    """The same representative for every nonzero multiple of an int vector."""
    p = field.char
    if p:
        inv = pow(next(c for c in vec if c % p), -1, p)
        return tuple(c * inv % p for c in vec)
    g = gcd(*vec)
    if next(c for c in vec if c) < 0:
        g = -g
    return tuple(c // g for c in vec)


def intersection_lattice(A: Arrangement, max_codim=None) -> Lattice:
    """All flats of codimension <= max_codim, with Mobius values.

    Defaults to the full lattice (max_codim = essential rank).
    """
    field = A.field
    r = A.essential_rank
    if max_codim is None:
        max_codim = r
    if max_codim < 0:
        raise ArrangementError(f"max_codim must be nonnegative, got {max_codim}")
    max_codim = min(max_codim, r)
    top = Flat(codim=0, members=frozenset(), key=(), mu=1)
    levels = [[top]]
    form_vecs = [list(f.coeffs) for f in A.forms]
    form_ints = [_int_vector(field, v) for v in form_vecs]
    for k in range(max_codim):
        seen = {}  # members -> flat
        for X in levels[k]:
            basis = [_int_vector(field, v) for v in Echelon.from_key(field, A.ell, X.key).kernel()]
            joins = {}  # direction of the restriction to X -> hyperplanes
            for j, f in enumerate(form_ints):
                if j not in X.members:
                    g = [sum(map(mul, f, v)) for v in basis]
                    joins.setdefault(_direction(field, g), []).append(j)
            for js in joins.values():
                members = X.members.union(js)
                if members not in seen:
                    e = Echelon.from_key(field, A.ell, X.key)
                    e.add(form_vecs[js[0]])
                    seen[members] = Flat(codim=k + 1, members=members, key=e.key())
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


def flat_of_subspace(A: Arrangement, X_forms, lattice: Lattice | None = None):
    """The flat equal to the subspace cut out by X_forms, or None."""
    key = span_key(A, X_forms)
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
    x_key = span_key(A, X_forms)
    codim_x = len(x_key)
    if lattice is None or lattice.max_codim < min(k, A.essential_rank):
        lattice = intersection_lattice(A, max_codim=min(k, A.essential_rank))
    if flat_of_subspace(A, X_forms, lattice) is not None:
        raise InLattice("subspace is a flat of the arrangement")
    for kk in range(1, min(k, lattice.max_codim) + 1):
        for Y in lattice.flats(kk):
            e = Echelon.from_key(field, A.ell, x_key)
            for row in Y.key:
                e.add(row)
            if len(e.pivots) != codim_x + Y.codim:
                return False, Y
    return True, None

