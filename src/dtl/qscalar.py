"""Exact arithmetic in a real quadratic field Q(sqrt(D)).

Every scalar is s + t*sqrt(D) with s, t rational and D a positive square-free
integer. D = 1 means the field is plain Q and the radical part is folded away.
Comparisons are exact: the sign of s + t*sqrt(D) is decided by rational sign
logic (squaring), never by floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .errors import DiscriminantMismatch

RatLike = Union[int, Fraction]


@lru_cache(maxsize=64)
def is_square_free(d: int) -> bool:
    """Whether d is a positive square-free integer, by trial division up to
    sqrt(d); cached, so each `QScalar` field is checked once."""
    if d <= 0:
        return False
    k = 2
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        k += 1
    return True


def _joint_disc(a: "QScalar", b: "QScalar") -> int:
    # A scalar with zero radical part is a member of every field.
    if a.disc == b.disc:
        return a.disc
    if a.rad == 0:
        return b.disc
    if b.rad == 0:
        return a.disc
    raise DiscriminantMismatch(f"cannot combine sqrt({a.disc}) with sqrt({b.disc})")


@dataclass(frozen=True)
class QScalar:
    """Immutable exact value rat + rad*sqrt(disc)."""

    rat: Fraction
    rad: Fraction
    disc: int

    def __init__(self, rat: RatLike = 0, rad: RatLike = 0, disc: int = 1):
        rat = Fraction(rat)
        rad = Fraction(rad)
        if disc == 1:
            rat, rad = rat + rad, Fraction(0)
        elif not is_square_free(disc):
            raise ValueError(f"discriminant must be square-free and positive: {disc}")
        if rad == 0:
            disc = 1
        object.__setattr__(self, "rat", rat)
        object.__setattr__(self, "rad", rad)
        object.__setattr__(self, "disc", disc)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "QScalar | RatLike") -> "QScalar":
        other = _coerce(other)
        d = _joint_disc(self, other)
        return QScalar(self.rat + other.rat, self.rad + other.rad, d)

    __radd__ = __add__

    def __neg__(self) -> "QScalar":
        return QScalar(-self.rat, -self.rad, self.disc)

    def __sub__(self, other: "QScalar | RatLike") -> "QScalar":
        return self + (-_coerce(other))

    def __rsub__(self, other: "QScalar | RatLike") -> "QScalar":
        return _coerce(other) + (-self)

    def __mul__(self, other: "QScalar | RatLike") -> "QScalar":
        other = _coerce(other)
        d = _joint_disc(self, other)
        return QScalar(
            self.rat * other.rat + self.rad * other.rad * d,
            self.rat * other.rad + self.rad * other.rat,
            d,
        )

    __rmul__ = __mul__

    # -- sign and order -----------------------------------------------------

    def sign(self) -> int:
        return _sign(self.rat, self.rad, self.disc)

    def __lt__(self, other: "QScalar | RatLike") -> bool:
        return (self - _coerce(other)).sign() < 0

    def __le__(self, other: "QScalar | RatLike") -> bool:
        return (self - _coerce(other)).sign() <= 0

    def __gt__(self, other: "QScalar | RatLike") -> bool:
        return (self - _coerce(other)).sign() > 0

    def __ge__(self, other: "QScalar | RatLike") -> bool:
        return (self - _coerce(other)).sign() >= 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = QScalar(other)
        if not isinstance(other, QScalar):
            return NotImplemented
        return self.rat == other.rat and self.rad == other.rad and self.disc == other.disc

    def __hash__(self) -> int:
        # A rational value equals its int or Fraction, so it hashes like one.
        if self.rad == 0:
            return hash(self.rat)
        return hash((self.rat, self.rad, self.disc))

    # -- conversion / display ----------------------------------------------

    def __float__(self) -> float:
        return float(self.rat) + float(self.rad) * math.sqrt(self.disc)

    def __str__(self) -> str:
        if self.rad == 0:
            return _frac_str(self.rat)
        if self.rat == 0:
            return f"{_frac_str(self.rad)}√{self.disc}"
        sep = "+" if self.rad > 0 else "-"
        return f"{_frac_str(self.rat)}{sep}{_frac_str(abs(self.rad))}√{self.disc}"

    def __repr__(self) -> str:
        return f"QScalar({self.rat!r}, {self.rad!r}, {self.disc})"


def _sign(s: RatLike, t: RatLike, disc: int) -> int:
    """Sign of s + t*sqrt(disc), exactly: the term of larger magnitude decides
    it, and squaring compares the magnitudes in rational arithmetic. The two
    never tie for square-free disc > 1 unless s = t = 0; at disc = 1, t must be
    0, which QScalar and `geometry.ground_set_from_points` both ensure."""
    if s * s > t * t * disc:
        return (s > 0) - (s < 0)
    return (t > 0) - (t < 0)


def _coerce(x: "QScalar | RatLike") -> QScalar:
    if isinstance(x, QScalar):
        return x
    return QScalar(x)


def _frac_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"

