"""Exact scalar arithmetic: the rationals and prime fields F_p.

Every algebraic computation in the package is generic over a ``field``
object exposing ``zero``, ``one``, ``from_int``, ``inv`` and
``characteristic`` (0 for QQ, p for F_p).  Both fields use one scalar
type, the plain ``int``; division happens only through ``field.inv``, so
callers scale by one inverse instead of dividing entry by entry.

Rational scalars stay ``int`` until a division by a non-unit forces a
``Fraction``: ``QQ.inv`` returns +-1 unchanged and ``Fraction(1, c)``
otherwise, and ``Fraction`` mixes exactly with ``int`` from then on.  Every
structure constant of Pi(C, D) is an integer, so most computations never
leave ``int``.

Prime-field scalars are ``int`` in ``range(p)``.  That is the invariant:
every scalar stored in a matrix or subspace row, a coordinate dict or a
free element is reduced.  The kernels that produce scalars (``linalg``,
the Groebner completion and ``FiniteDimAlgebra.mul_coords`` in
``pathalg``, and the few sums in ``repmod``) read the characteristic once
per call and reduce their output ``% p``; inside one call, intermediate
values may grow before that reduction.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .errors import FieldDegenerate, ValidationError


class Rationals:
    kind = "rational"
    zero = 0
    one = 1

    def __init__(self):
        # an instance attribute: the kernels read it on every call, and that
        # lookup is faster than one that falls through to the class
        self.characteristic = 0

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


# Miller-Rabin to the prime bases 2, ..., 41 is exact below this bound
# (Sorenson and Webster, Math. Comp. 86 (2017)); larger p are refused.
# The bases up to 37 alone pass the composite 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, exact for p < ``_MR_BOUND``."""
    if p < 2 or p in _MR_BASES:
        return p in _MR_BASES
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    return not any(
        x != 1 and all(pow(x, 2 ** r, p) != p - 1 for r in range(s))
        for x in (pow(b, d, p) for b in _MR_BASES))


class PrimeField:
    kind = "prime"
    zero = 0
    one = 1

    def __init__(self, p: int):
        if isinstance(p, bool) or not isinstance(p, int):
            raise ValidationError(f"p must be an integer, got {p!r}")
        if p >= _MR_BOUND:
            raise ValidationError(f"p must be below {_MR_BOUND}, got {p}")
        if not _is_prime(p):
            raise ValidationError(f"{p} is not prime")
        self.p = self.characteristic = p

    def from_int(self, k: int) -> int:
        return operator.index(k) % self.p

    def inv(self, c: int) -> int:
        if not c % self.p:
            raise FieldDegenerate(f"division by zero in F_{self.p}")
        return pow(c, -1, self.p)

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
                p = int(spec[3:])
            except ValueError as exc:
                raise ValidationError(f"bad field spec {spec!r}") from exc
            return PrimeField(p)
        raise ValidationError(f"bad field spec {spec!r}")
    if isinstance(spec, dict):
        kind = spec.get("type")
        if kind == "rational":
            return QQ
        if kind == "prime":
            if "p" not in spec:
                raise ValidationError("prime field spec needs 'p'")
            return PrimeField(spec["p"])
    raise ValidationError(f"bad field spec {spec!r}")
