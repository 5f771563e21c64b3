"""Exact scalar arithmetic: the rationals and prime fields F_p.

Every algebraic computation in the package is generic over a ``field``
object exposing ``zero``, ``one``, ``from_int`` and ``inv``; the scalars
themselves carry the ring arithmetic (+, -, *) through operator overloading.
Division happens only through ``field.inv``, so callers scale by one inverse
instead of dividing entry by entry.

Rational scalars are plain ``int`` until a division by a non-unit forces a
``Fraction``: ``QQ.inv`` returns +-1 unchanged and ``Fraction(1, c)``
otherwise, and ``Fraction`` mixes exactly with ``int`` from then on.  Every
structure constant of Pi(C, D) is an integer, so most computations never
leave ``int``.  Prime-field scalars are :class:`FpElement`.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .errors import FieldDegenerate, ValidationError


class Rationals:
    kind = "rational"
    zero = 0
    one = 1

    @staticmethod
    def from_int(k: int) -> int:
        return operator.index(k)

    @staticmethod
    def inv(c):
        """1/c: +-1 stays an int, any other non-zero c gives a Fraction."""
        if c == 1 or c == -1:
            return c
        if not c:
            raise FieldDegenerate("division by zero in QQ")
        return Fraction(1, c)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")


QQ = Rationals()


class FpElement:
    """An element of F_p.  Arithmetic only mixes elements of the same p."""

    __slots__ = ("val", "p")

    def __init__(self, val: int, p: int):
        self.val = val % p
        self.p = p

    def __add__(self, other):
        return FpElement(self.val + other.val, self.p)

    def __sub__(self, other):
        return FpElement(self.val - other.val, self.p)

    def __mul__(self, other):
        return FpElement(self.val * other.val, self.p)

    def __truediv__(self, other):
        if other.val % other.p == 0:
            raise FieldDegenerate(f"division by zero in F_{self.p}")
        return FpElement(self.val * pow(other.val, -1, self.p), self.p)

    def __neg__(self):
        return FpElement(-self.val, self.p)

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.val == other.val
        if isinstance(other, int):
            return self.val == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.val, self.p))

    def __bool__(self):
        return self.val != 0

    def __repr__(self):
        return f"{self.val}"


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class PrimeField:
    kind = "prime"

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValidationError(f"{p} is not prime")
        self.p = p
        self.zero = FpElement(0, p)
        self.one = FpElement(1, p)

    def from_int(self, k: int) -> FpElement:
        return FpElement(k, self.p)

    def inv(self, c: FpElement) -> FpElement:
        if not c.val:
            raise FieldDegenerate(f"division by zero in F_{self.p}")
        return FpElement(pow(c.val, -1, self.p), self.p)

    def __repr__(self):
        return f"F_{self.p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


def field_from_spec(spec) -> Rationals | PrimeField:
    """Build a field from a JSON-style spec or a CLI string.

    Accepts ``{"type": "rational"}``, ``{"type": "prime", "p": 101}``,
    ``"rational"`` or ``"fp:101"``."""
    if spec is None:
        return QQ
    if isinstance(spec, (Rationals, PrimeField)):
        return spec
    if isinstance(spec, str):
        if spec == "rational":
            return QQ
        if spec.startswith("fp:"):
            try:
                return PrimeField(int(spec[3:]))
            except ValueError as exc:
                raise ValidationError(f"bad field spec {spec!r}") from exc
        raise ValidationError(f"bad field spec {spec!r}")
    if isinstance(spec, dict):
        kind = spec.get("type")
        if kind == "rational":
            return QQ
        if kind == "prime":
            if "p" not in spec:
                raise ValidationError("prime field spec needs 'p'")
            return PrimeField(int(spec["p"]))
    raise ValidationError(f"bad field spec {spec!r}")
