"""Exact planar points, triangle shapes, congruence predicates, and ground sets.

A "triangle" is an unordered triple of distinct points, collinear triples
included. Its shape key is the sorted triple of squared side lengths, which
identifies the congruence class (SSS). All side lengths are kept squared so
everything stays inside one quadratic field.

A ground set is a point configuration given by exact coordinates, an exact
squared-distance matrix, or float coordinates compared under a tolerance.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations
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


DEFAULT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class GroundSet:
    """A finite point configuration with its squared distances interned.

    `values` holds the distinct squared distances in ascending order, and
    `_rank[i][j]` is the index into `values` of the squared distance between
    points i and j (-1 on the diagonal). Ranks keep the order of the values,
    so the sorted rank triple of a triangle is its shape key.
    """

    label: str
    mode: str  # "coordinates" | "distance-matrix" | "float"
    size: int
    values: tuple
    _rank: tuple  # size rows of size ints

    def sq_distance(self, i: int, j: int):
        if i == j:
            raise PreconditionError("squared distance needs distinct indices")
        return self.values[self._rank[i][j]]

    def shape_key(self, i: int, j: int, k: int) -> tuple[int, int, int]:
        r = self._rank
        key = sorted((r[i][j], r[i][k], r[j][k]))
        if key[0] < 0:
            raise PreconditionError("shape key needs three distinct indices")
        return tuple(key)

    def distinct_shapes(self, indices: Iterable[int]) -> set[tuple[int, int, int]]:
        """Shape keys over all triples of `indices`."""
        key = self.shape_key
        return {key(a, b, c) for a, b, c in combinations(indices, 3)}

    def sorted_sides(self) -> list[tuple]:
        """Squared sides (s1 <= s2 <= s3) of each distinct shape of the set, ascending."""
        keys = sorted(self.distinct_shapes(range(self.size)))
        return [tuple(self.values[r] for r in key) for key in keys]


def _from_ranks(label: str, mode: str, n: int, ranks: list[int], values: list) -> GroundSet:
    """Spreads upper-triangle, row-major pair ranks into a symmetric table."""
    rows = [[-1] * n for _ in range(n)]
    for (i, j), r in zip(combinations(range(n), 2), ranks):
        rows[i][j] = rows[j][i] = r
    return GroundSet(label, mode, n, tuple(values), tuple(map(tuple, rows)))


def _interned_exact(label: str, mode: str, n: int, dist: list[QScalar]) -> GroundSet:
    values = sorted(set(dist))
    rank = {v: r for r, v in enumerate(values)}
    return _from_ranks(label, mode, n, [rank[d] for d in dist], values)


def ground_set_from_points(points: Sequence[QPoint], label: str = "points") -> GroundSet:
    pairs = list(combinations(range(len(points)), 2))
    dist = [sq_dist(points[i], points[j]) for i, j in pairs]
    for (i, j), d in zip(pairs, dist):
        if d.is_zero():
            raise PreconditionError(f"duplicate points at indices {i}, {j}")
    return _interned_exact(label, "coordinates", len(points), dist)


def ground_set_from_matrix(
    n: int, entries: Sequence[QScalar], label: str = "matrix"
) -> GroundSet:
    if len(entries) != n * (n - 1) // 2:
        raise PreconditionError(
            f"expected {n * (n - 1) // 2} upper-triangle entries, got {len(entries)}"
        )
    if any(e.sign() <= 0 for e in entries):
        raise PreconditionError("squared distances must be positive")
    return _interned_exact(label, "distance-matrix", n, list(entries))


def ground_set_from_floats(
    points: Sequence[tuple[float, float]],
    tolerance: float = DEFAULT_TOLERANCE,
    label: str = "float",
) -> GroundSet:
    """Tolerance path: squared distances are divided by the squared diameter
    and sorted, and a new rank starts only where the gap to the previous
    value exceeds `tolerance`. So values chained by gaps of at most the
    tolerance share a rank, and a tolerance of 0 means exact float equality.
    `values` holds the smallest raw squared distance of each rank."""
    if not tolerance >= 0:
        raise PreconditionError(f"tolerance must be >= 0, got {tolerance}")
    raw = [(p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 for p, q in combinations(points, 2)]
    diam = max(raw, default=0.0)
    if diam <= 0:
        raise PreconditionError("degenerate float point set")
    ranks = [0] * len(raw)
    values: list[float] = []
    prev = 0.0
    for p in sorted(range(len(raw)), key=raw.__getitem__):
        x = raw[p] / diam
        if not values or x - prev > tolerance:
            values.append(raw[p])
        ranks[p] = len(values) - 1
        prev = x
    return _from_ranks(label, "float", len(points), ranks, values)


def distinct_triangle_count(
    points: Sequence[QPoint], include_degenerate: bool = True
) -> tuple[int, list[TriangleShape]]:
    """Number of distinct triangle shapes over all C(n,3) triples of the set,
    and the shapes in ascending (s1, s2, s3) order."""
    shapes = [TriangleShape(*s) for s in ground_set_from_points(list(points)).sorted_sides()]
    if not include_degenerate:
        shapes = [s for s in shapes if not is_degenerate(s)]
    return len(shapes), shapes


def diameter(points: Iterable[QPoint]) -> QScalar:
    """Maximum pairwise squared distance of the set."""
    pts = list(points)
    if len(pts) < 2:
        raise PreconditionError("diameter needs at least 2 points")
    return max(sq_dist(p, q) for p, q in combinations(pts, 2))
