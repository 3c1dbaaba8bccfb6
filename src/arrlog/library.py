"""Built-in example arrangements.

Names accepted by `example_library` (and the CLI as `@name:params`):

    boolean:ell         coordinate hyperplanes x_1, ..., x_ell
    braid:n             x_i - x_j (i < j) in n variables (rank n-1)
    grr3:r              the rank-3 reflection arrangement with defining
                        polynomial (x^r - y^r)(y^r - z^r)(x^r - z^r);
                        needs r-th roots of unity, so over F_p require
                        p = 1 (mod r)
    ziegler22           the 22-hyperplane free arrangement in 4 variables
                        with exponents (1, 5, 7, 9)
    nine4d              the 9-hyperplane rank-4 arrangement given by a
                        fixed 4x9 coefficient matrix
    generic:n,ell,seed  seeded pseudo-random arrangement certified to
                        have the uniform matroid (all small subsets of
                        forms independent)
"""

from __future__ import annotations

import random

from .arrangement import Arrangement, ArrangementError, validate
from .fields import QQ, Rationals
from .linalg import Matrix, rank


class FieldUnsupported(ArrangementError):
    pass


def boolean(ell: int, field=QQ) -> Arrangement:
    vecs = [[1 if j == i else 0 for j in range(ell)] for i in range(ell)]
    return validate(field, vecs)


def braid(n: int, field=QQ) -> Arrangement:
    """x_i - x_j for i < j, in n variables; essential rank n-1."""
    vecs = []
    for i in range(n):
        for j in range(i + 1, n):
            v = [0] * n
            v[i], v[j] = 1, -1
            vecs.append(v)
    return validate(field, vecs)


def _primitive_root(p: int) -> int:
    factors = []
    m = p - 1
    d = 2
    while d * d <= m:
        if m % d == 0:
            factors.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        factors.append(m)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise AssertionError("no primitive root found")


def roots_of_unity(field, r: int):
    """The r distinct r-th roots of unity, sorted, or raise FieldUnsupported."""
    if isinstance(field, Rationals):
        if r == 1:
            return [field.one]
        if r == 2:
            return [field.of(1), field.of(-1)]
        raise FieldUnsupported(f"Q has no primitive {r}-th roots of unity")
    p = field.p
    if (p - 1) % r != 0:
        raise FieldUnsupported(f"F_{p} has no {r}-th roots of unity (need p = 1 mod {r})")
    g = _primitive_root(p)
    z = pow(g, (p - 1) // r, p)
    roots = sorted(pow(z, k, p) for k in range(r))
    return roots


def grr3(r: int, field) -> Arrangement:
    """The reflection arrangement with Q = (x^r - y^r)(y^r - z^r)(x^r - z^r)."""
    if r < 1:
        raise ArrangementError("need r >= 1")
    roots = roots_of_unity(field, r)
    vecs = []
    for z in roots:
        vecs.append([1, field.neg(z), 0])
    for z in roots:
        vecs.append([0, 1, field.neg(z)])
    for z in roots:
        vecs.append([1, 0, field.neg(z)])
    return validate(field, vecs)


def ziegler22(field=QQ) -> Arrangement:
    """22 hyperplanes in 4 variables, free with exponents (1, 5, 7, 9).

    Defining polynomial:
    x1 x2 x3 x4 * prod_{i<=3} (x_i^2 - x4^2)(x_i^2 - 4 x4^2)
                * prod_{i in {2,3}} (x_i^2 - 9 x4^2) * (x3^2 - 16 x4^2).
    """
    vecs = []
    for i in range(4):
        v = [0] * 4
        v[i] = 1
        vecs.append(v)
    def pm(i, c):
        for s in (-c, c):
            v = [0] * 4
            v[i] = 1
            v[3] = s
            vecs.append(v)
    for i in range(3):
        pm(i, 1)
        pm(i, 2)
    for i in (1, 2):
        pm(i, 3)
    pm(2, 4)
    return validate(field, vecs)


NINE4D_COLUMNS = (
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (0, 0, 1, 0),
    (1, 0, 0, 1),
    (0, 1, 0, 1),
    (0, 0, 1, 1),
    (1, 1, 0, 1),
    (1, 0, 1, 1),
    (0, 1, 1, 1),
)


def nine4d(field=QQ) -> Arrangement:
    """9 hyperplanes in 4 variables from a fixed coefficient matrix (rank 4)."""
    return validate(field, [list(c) for c in NINE4D_COLUMNS])


def generic(n: int, ell: int, seed: int, field=QQ) -> Arrangement:
    """Seeded random arrangement with the uniform rank-ell matroid.

    Coefficients are drawn from [1, 1000] over Q or from the full field
    over F_p; sampling is retried deterministically until every subset
    of at most ell forms is independent.
    """
    from itertools import combinations

    attempt = 0
    while attempt < 200:
        rng = random.Random(seed * 1000003 + attempt)
        vecs = []
        for _ in range(n):
            if isinstance(field, Rationals):
                vecs.append([rng.randint(1, 1000) for _ in range(ell)])
            else:
                vecs.append([rng.randrange(field.p) for _ in range(ell)])
        attempt += 1
        try:
            A = validate(field, vecs, ell=ell)
        except ArrangementError:
            continue
        ok = True
        for k in range(2, min(n, ell) + 1):
            for idxs in combinations(range(n), k):
                M = Matrix(field, [vecs[i] for i in idxs])
                if rank(M) != k:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return A
    raise ArrangementError(f"could not sample a generic arrangement (n={n}, ell={ell}, seed={seed})")


def example_library(name: str, field=None, **params) -> Arrangement:
    """Look up a named example; see the module docstring for names."""
    key = name.lower()
    if key == "boolean":
        return boolean(int(params.get("ell", params.get("l", 3))), field or QQ)
    if key == "braid":
        return braid(int(params.get("n", 4)), field or QQ)
    if key in ("grr3", "g_rr3"):
        r = int(params.get("r", 3))
        if field is None:
            raise FieldUnsupported("grr3 needs an explicit field with r-th roots of unity")
        return grr3(r, field)
    if key == "ziegler22":
        return ziegler22(field or QQ)
    if key == "nine4d":
        return nine4d(field or QQ)
    if key == "generic":
        return generic(
            int(params.get("n", 5)),
            int(params.get("ell", params.get("l", 3))),
            int(params.get("seed", 0)),
            field or QQ,
        )
    raise ArrangementError(f"unknown example arrangement {name!r}")


def parse_library_ref(ref: str, field=None) -> Arrangement:
    """Parse "@name" or "@name:3" or "@name:n=5,ell=3,seed=1"."""
    if not ref.startswith("@"):
        raise ArrangementError("library references start with @")
    body = ref[1:]
    if ":" in body:
        name, argstr = body.split(":", 1)
        params = {}
        positional = []
        for tok in argstr.split(","):
            tok = tok.strip()
            if not tok:
                continue
            if "=" in tok:
                k, v = tok.split("=", 1)
                params[k.strip()] = v.strip()
            else:
                positional.append(tok)
        # positional arguments fill the natural parameter order per name
        order = {
            "boolean": ["ell"],
            "braid": ["n"],
            "grr3": ["r"],
            "generic": ["n", "ell", "seed"],
        }.get(name.lower(), [])
        for slot, val in zip(order, positional):
            params.setdefault(slot, val)
        return example_library(name, field=field, **params)
    return example_library(body, field=field)
