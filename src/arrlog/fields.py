"""Exact coefficient fields: arbitrary-precision rationals and odd prime fields.

Scalars are plain Python values (Fraction for Q, int in [0, p) for F_p);
the field objects supply the arithmetic so that generic code can run over
either field.
"""

from __future__ import annotations

from fractions import Fraction


class FieldMismatch(ValueError):
    """Raised when operands belong to different coefficient fields."""


class Rationals:
    """The rational field Q.  Elements are Fractions in lowest terms."""

    char = 0

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def of(self, x) -> Fraction:
        return Fraction(x)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def div(self, a, b):
        return Fraction(a) / b

    def parse(self, s: str) -> Fraction:
        return Fraction(s)

    def format(self, a) -> str:
        return str(Fraction(a))

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "QQ"

    @property
    def name(self) -> str:
        return "Q"


class PrimeField:
    """The prime field F_p for an odd word-sized prime p.

    Elements are ints reduced to [0, p).  Inversion uses extended Euclid.
    """

    def __init__(self, p: int):
        if p <= 2 or not _is_prime(p):
            raise ValueError(f"modulus must be an odd prime, got {p}")
        if p >= 1 << 62:
            raise ValueError("modulus too large (need p < 2**62)")
        self.p = p
        self.char = p

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def of(self, x) -> int:
        if isinstance(x, Fraction):
            num = x.numerator % self.p
            den = x.denominator % self.p
            return self.mul(num, self.inv(den))
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def parse(self, s: str) -> int:
        if "/" in s:
            num, den = s.split("/")
            return self.div(int(num) % self.p, int(den) % self.p)
        return int(s) % self.p

    def format(self, a) -> str:
        return str(a % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"GF({self.p})"

    @property
    def name(self) -> str:
        return f"F{self.p}"


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3 * 10**24."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


QQ = Rationals()

_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]


def parse_field(spec: str):
    """Parse a field spec string: "Q", "Fp:7", or "F7"."""
    s = spec.strip()
    if s in ("Q", "QQ", "q"):
        return QQ
    if s.lower().startswith("fp:"):
        return GF(int(s[3:]))
    if s[:1] in ("F", "f") and s[1:].isdigit():
        return GF(int(s[1:]))
    raise ValueError(f"unrecognized field spec {spec!r}")


def check_same_field(a, b):
    if a != b:
        raise FieldMismatch(f"mixed fields: {a!r} vs {b!r}")
