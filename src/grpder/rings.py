"""Exact coefficient rings: integers, rationals and prime fields.

Scalars are plain Python objects: ``int`` for Z and F_p (prime-field values
normalized into ``[0, p)``), ``fractions.Fraction`` for Q. Ring descriptors
carry the ring-specific operations (coercion, normalization) so that hot
loops can use native ``+``/``*`` and only normalize where needed.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache

from .errors import MixedRings

Scalar = int | Fraction

# Moduli are bounded so that trial division in _is_prime stays under about
# 23k steps; a modulus from a JSON file or the command line cannot stall.
MAX_MODULUS = 2**31

_SCALAR_STRING = re.compile(r"-?[0-9]+(/[0-9]+)?")
# The canonical token of a prime field: ASCII digits, no leading zero.
_FIELD_TOKEN = re.compile(r"F[1-9][0-9]*")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class Ring:
    """Descriptor for one exact coefficient ring."""

    token: str
    is_field: bool
    characteristic: int
    zero: Scalar
    one: Scalar

    def coerce(self, value) -> Scalar:
        raise NotImplementedError

    def normalize(self, value: Scalar) -> Scalar:
        """Post-arithmetic cleanup (reduction mod p); identity for Z and Q."""
        return value

    def coeffs_to_json(self, coeffs) -> list:
        """JSON values of normalized coefficients, the inverse of :func:`parse_scalar`: the ints themselves."""
        return list(coeffs)

    def __repr__(self) -> str:
        return self.token

    def __eq__(self, other) -> bool:
        return isinstance(other, Ring) and self.token == other.token

    def __hash__(self) -> int:
        return hash(self.token)


class IntegerRing(Ring):
    token = "Z"
    is_field = False
    characteristic = 0
    zero = 0
    one = 1

    def coerce(self, value) -> int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        if isinstance(value, Fraction):
            if value.denominator == 1:
                return int(value)
            raise ValueError(f"{value} is not an integer")
        raise ValueError(f"cannot coerce {value!r} into Z")


class RationalField(Ring):
    token = "Q"
    is_field = True
    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, value) -> Fraction:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            return Fraction(value)
        raise ValueError(f"cannot coerce {value!r} into Q")

    def coeffs_to_json(self, coeffs) -> list:
        """An integer value as its int, any other as ``"n/d"``."""
        return [v.numerator if v.denominator == 1 else f"{v.numerator}/{v.denominator}" for v in coeffs]


class PrimeField(Ring):
    is_field = True

    def __init__(self, p: int) -> None:
        if p >= MAX_MODULUS:
            raise ValueError(f"modulus must be below 2^31, got {p}")
        if not _is_prime(p):
            raise ValueError(f"modulus must be prime, got {p}")
        self.p = p
        self.token = f"F{p}"
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def coerce(self, value) -> int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value % self.p
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise ValueError(f"denominator of {value} vanishes mod {self.p}")
            return value.numerator * pow(den, self.p - 2, self.p) % self.p
        raise ValueError(f"cannot coerce {value!r} into F_{self.p}")

    def normalize(self, value: Scalar) -> int:
        return value % self.p


ZZ = IntegerRing()
QQ = RationalField()


@lru_cache(maxsize=64)
def GF(p: int) -> PrimeField:
    """The prime field with ``p`` elements (``p`` must be prime).

    The cache is bounded so that a long-lived process fed distinct moduli
    does not keep every field; rings compare by token, so a field built
    again after eviction equals the old one.
    """
    return PrimeField(p)


def ring_from_token(token: str, p: int | None = None) -> Ring:
    """Resolve a ring descriptor from its serialized token ("Z", "Q", "Fp", "F5").

    A prime field is named only by its canonical token ``F<p>``: "F05" or a
    modulus in non-ASCII digits is rejected, not read as F5.
    """
    if not isinstance(token, str):
        raise ValueError(f"ring token must be a string, got {token!r}")
    if token == "Z":
        return ZZ
    if token == "Q":
        return QQ
    if token == "Fp":
        if p is None:
            raise ValueError("ring token 'Fp' requires a modulus")
        # A float such as 5.0 passes the primality test and would give float coefficients.
        if type(p) is not int:
            raise ValueError(f"modulus must be an integer, got {p!r}")
        return GF(p)
    if _FIELD_TOKEN.fullmatch(token):
        return GF(int(token[1:]))
    raise ValueError(f"unknown ring token {token!r}")


def parse_scalar(ring: Ring, raw) -> Scalar:
    """Parse a JSON scalar: an int or a "num/den" string of decimal digits.

    Raises ValueError on anything else, a zero denominator included. Strings
    such as "1e999999999", "1.5", " 3 " or "1_000", which ``Fraction``
    would accept, are rejected: an exponent would be expanded in full.
    """
    if isinstance(raw, str):
        if not _SCALAR_STRING.fullmatch(raw):
            raise ValueError(f"scalar string must be an integer or num/den, got {raw!r}")
        try:
            value = Fraction(raw)
        except ZeroDivisionError as exc:
            raise ValueError(f"zero denominator in {raw!r}") from exc
        return ring.coerce(value)
    return ring.coerce(raw)


def require_same_ring(a: Ring, b: Ring) -> None:
    if a != b:
        raise MixedRings(f"ring mismatch: {a} vs {b}")
