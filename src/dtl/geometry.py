"""Exact planar points, triangle shapes, and congruence predicates.

A "triangle" is an unordered triple of distinct points, collinear triples
included. Its shape key is the sorted triple of squared side lengths, which
identifies the congruence class (SSS). All side lengths are kept squared so
everything stays inside one quadratic field.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import PreconditionError
from .qscalar import QScalar, RatLike, _coerce, _joint_disc


@dataclass(frozen=True)
class QPoint:
    x: QScalar
    y: QScalar

    def __init__(self, x: "QScalar | RatLike", y: "QScalar | RatLike"):
        x, y = _coerce(x), _coerce(y)
        _joint_disc(x, y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __sub__(self, other: "QPoint") -> "QPoint":
        return QPoint(self.x - other.x, self.y - other.y)

    def __add__(self, other: "QPoint") -> "QPoint":
        return QPoint(self.x + other.x, self.y + other.y)

    def __str__(self) -> str:
        return f"({self.x}, {self.y})"


def sq_dist(p: QPoint, q: QPoint) -> QScalar:
    """Exact squared distance between two points."""
    dx = p.x - q.x
    dy = p.y - q.y
    return dx * dx + dy * dy


@dataclass(frozen=True)
class TriangleShape:
    """Canonical congruence-class key: squared side lengths with s1 <= s2 <= s3."""

    s1: QScalar
    s2: QScalar
    s3: QScalar

    def __init__(self, s1, s2, s3):
        s1, s2, s3 = sorted((_coerce(s1), _coerce(s2), _coerce(s3)))
        if s1.sign() <= 0:
            raise PreconditionError("squared side lengths must be strictly positive")
        object.__setattr__(self, "s1", s1)
        object.__setattr__(self, "s2", s2)
        object.__setattr__(self, "s3", s3)

    def sides(self) -> tuple[QScalar, QScalar, QScalar]:
        return (self.s1, self.s2, self.s3)

    def sixteen_area_sq(self) -> QScalar:
        """2(ab + bc + ca) - a^2 - b^2 - c^2, i.e. 16 * area^2 (Heron on squares)."""
        a, b, c = self.s1, self.s2, self.s3
        return 2 * (a * b + b * c + c * a) - a * a - b * b - c * c

    def __str__(self) -> str:
        return f"({self.s1}, {self.s2}, {self.s3})"


def shape_of(a: QPoint, b: QPoint, c: QPoint) -> TriangleShape:
    """Shape key of triangle abc. The vertices must be pairwise distinct."""
    if a == b or a == c or b == c:
        raise PreconditionError("triangle vertices must be pairwise distinct")
    return TriangleShape(sq_dist(a, b), sq_dist(a, c), sq_dist(b, c))


def is_degenerate(s: TriangleShape) -> bool:
    """True iff the shape has zero area (collinear vertices)."""
    return s.sixteen_area_sq().is_zero()


def is_right(s: TriangleShape) -> bool:
    return (s.s1 + s.s2) == s.s3


def is_isosceles(s: TriangleShape) -> bool:
    return s.s1 == s.s2 or s.s2 == s.s3


@dataclass(frozen=True)
class ShapeClass:
    isosceles: bool
    right: bool
    degenerate: bool


def classify(s: TriangleShape) -> ShapeClass:
    return ShapeClass(is_isosceles(s), is_right(s), is_degenerate(s))


class CongruenceFlag(enum.Flag):
    """Which reflection (per the shared-side congruence trichotomy) maps C to D."""

    AXIS = enum.auto()  # reflection across line AB
    MIDPOINT = enum.auto()  # point reflection through the midpoint of AB
    PERP_BISECTOR = enum.auto()  # reflection across the perpendicular bisector of AB


def _reflect_across_line(a: QPoint, b: QPoint, c: QPoint) -> QPoint:
    # Project c onto line ab, then mirror. Division keeps us inside the field.
    ab = b - a
    ac = c - a
    n2 = ab.x * ab.x + ab.y * ab.y
    t = (ac.x * ab.x + ac.y * ab.y) / n2
    foot = QPoint(a.x + t * ab.x, a.y + t * ab.y)
    return QPoint(2 * foot.x - c.x, 2 * foot.y - c.y)


def _reflect_across_midpoint(a: QPoint, b: QPoint, c: QPoint) -> QPoint:
    return QPoint(a.x + b.x - c.x, a.y + b.y - c.y)


def _reflect_across_perp_bisector(a: QPoint, b: QPoint, c: QPoint) -> QPoint:
    # Composition of the other two reflections.
    return _reflect_across_line(a, b, _reflect_across_midpoint(a, b, c))


_REFLECTIONS = (
    (CongruenceFlag.AXIS, _reflect_across_line),
    (CongruenceFlag.MIDPOINT, _reflect_across_midpoint),
    (CongruenceFlag.PERP_BISECTOR, _reflect_across_perp_bisector),
)


def congruent_apex_positions(a: QPoint, b: QPoint, c: QPoint) -> list[QPoint]:
    """The other apex positions d != c with shape(a,b,d) = shape(a,b,c).

    These are the three reflections of c (across line ab, the midpoint of ab,
    and the perpendicular bisector of ab), deduplicated and with c itself
    removed. All three stay inside Q(sqrt(D)) because each reflection is a
    rational function of the input coordinates.
    """
    if a == b:
        raise PreconditionError("a and b must be distinct")
    if c == a or c == b:
        raise PreconditionError("c must differ from a and b")
    out: list[QPoint] = []
    for _, refl in _REFLECTIONS:
        d = refl(a, b, c)
        if d != c and d not in out:
            out.append(d)
    return out


def classify_congruence(a: QPoint, b: QPoint, c: QPoint, d: QPoint) -> CongruenceFlag:
    """The set of reflections that map c to d, given shape(a,b,c) = shape(a,b,d).

    Guaranteed nonempty: two triangles on the same base with equal shape have
    their apexes related by at least one of the three reflections.
    """
    if shape_of(a, b, c) != shape_of(a, b, d):
        raise PreconditionError("shapes of abc and abd differ")
    if c == d:
        raise PreconditionError("c and d must be distinct")
    flags = CongruenceFlag(0)
    for flag, refl in _REFLECTIONS:
        if refl(a, b, c) == d:
            flags |= flag
    if not flags:
        raise AssertionError(
            f"congruence trichotomy violated for a={a} b={b} c={c} d={d}"
        )
    return flags


def distinct_triangle_count(
    points: Sequence[QPoint], include_degenerate: bool = True
) -> tuple[int, list[TriangleShape]]:
    """Number of distinct triangle shapes over all C(n,3) triples of the set."""
    pts = list(points)
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            if pts[i] == pts[j]:
                raise PreconditionError(f"duplicate point {pts[i]}")
    # Precompute the squared distance matrix once; O(n^3) triple scan after.
    d = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = sq_dist(pts[i], pts[j])
    shapes: set[TriangleShape] = set()
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                s = TriangleShape(d[i][j], d[i][k], d[j][k])
                if include_degenerate or not is_degenerate(s):
                    shapes.add(s)
    ordered = sorted(shapes, key=lambda s: (s.s1, s.s2, s.s3))
    return len(ordered), ordered


def diameter(points: Iterable[QPoint]) -> QScalar:
    """Maximum pairwise squared distance of the set."""
    pts = list(points)
    if len(pts) < 2:
        raise PreconditionError("diameter needs at least 2 points")
    best = None
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = sq_dist(pts[i], pts[j])
            if best is None or d > best:
                best = d
    return best
