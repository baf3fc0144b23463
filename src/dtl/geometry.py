"""Exact planar points, triangle shapes, and ground sets.

A "triangle" is an unordered triple of distinct points, collinear triples
included. Its shape key is the sorted triple of squared side lengths, which
identifies the congruence class (SSS). All side lengths are kept squared so
everything stays inside one quadratic field.

A ground set is a point configuration given by exact coordinates, an exact
squared-distance matrix, or float coordinates compared under a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import chain, combinations
from typing import Iterable, Sequence

import numpy as np

from .errors import CostGuardExceeded, DiscriminantMismatch, PreconditionError
from .keys import key_width, rank_keys, unpack
from .qscalar import QScalar, RatLike, _coerce, _joint_disc, _sign


@dataclass(frozen=True)
class QPoint:
    x: QScalar
    y: QScalar

    def __init__(self, x: "QScalar | RatLike", y: "QScalar | RatLike"):
        x, y = _coerce(x), _coerce(y)
        _joint_disc(x, y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __add__(self, other: "QPoint") -> "QPoint":
        return QPoint(self.x + other.x, self.y + other.y)

    def __str__(self) -> str:
        return f"({self.x}, {self.y})"


def sq_dist(p: QPoint, q: QPoint) -> QScalar:
    """Exact squared distance between two points."""
    dx = p.x - q.x
    dy = p.y - q.y
    return dx * dx + dy * dy


DEFAULT_TOLERANCE = 1e-9
# The most triples `GroundSet.sorted_sides` keys: at 392 random float points,
# where every triple is a new shape, tracemalloc measures a peak of 105 B per
# triple, so about 1.05 GB.
TRIPLE_LIMIT = 10_000_000


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

    def sorted_sides(self, include_degenerate: bool = True) -> list[tuple[int, int, int]]:
        """The shape keys (r1 <= r2 <= r3) of all triples of the set, distinct
        and ascending: `sorted(distinct_shapes(range(size)))`, keyed in numpy.
        The squared sides of a shape are `values[r1] <= values[r2] <=
        values[r3]`. Zero-area shapes are dropped unless `include_degenerate`
        (an exact test, so meaningless for a float set). Raises
        CostGuardExceeded, before keying any triple, for more than
        TRIPLE_LIMIT triples."""
        check_triples(self.size)
        width = key_width(len(self.values) - 1)
        keys = rank_keys(self._rank, width)
        # one int object per rank, shared by every key that holds it
        ranks = np.arange(len(self.values)).astype(object)
        shapes = list(zip(*(ranks[f].tolist() for f in unpack(keys, width))))
        if not include_degenerate:
            disc, _, v = _integer_pairs([_coerce(x) for x in self.values])
            shapes = [s for s in shapes if not _zero_area(*(v[r] for r in s), disc)]
        return shapes


def _zero_area(a: tuple[int, int], b: tuple[int, int], c: tuple[int, int], disc: int) -> bool:
    """Whether squared sides a, b, c, each an integer pair (s, t) meaning
    s + t*sqrt(disc), bound zero area: 16 area^2 = 4ab - (a + b - c)^2, and
    an element of Z[sqrt(disc)] is zero iff both its parts are."""
    (a0, a1), (b0, b1) = a, b
    d0, d1 = a0 + b0 - c[0], a1 + b1 - c[1]
    return (4 * (a0 * b0 + a1 * b1 * disc) == d0 * d0 + d1 * d1 * disc
            and 2 * (a0 * b1 + a1 * b0) == d0 * d1)


def check_triples(size: int) -> None:
    """Refuses a set of `size` points that spans more than TRIPLE_LIMIT
    triples; a point-set file is checked with its point count, before the
    set is built."""
    triples = math.comb(size, 3)
    if triples > TRIPLE_LIMIT:
        raise CostGuardExceeded(
            f"{size} points span {triples} triples, over the limit of {TRIPLE_LIMIT}"
        )


def _from_ranks(label: str, mode: str, n: int, ranks: list[int], values: list) -> GroundSet:
    """Spreads upper-triangle, row-major pair ranks into a symmetric table."""
    rows = [[-1] * n for _ in range(n)]
    for (i, j), r in zip(combinations(range(n), 2), ranks):
        rows[i][j] = rows[j][i] = r
    return GroundSet(label, mode, n, tuple(values), tuple(map(tuple, rows)))


def _duplicate_points(n: int, p: int) -> PreconditionError:
    """The error for two equal points at index p of the upper-triangle,
    row-major pair order of n points."""
    i, j = list(combinations(range(n), 2))[p]
    return PreconditionError(f"duplicate points at indices {i}, {j}")


def check_tolerance(tolerance: float) -> None:
    if not tolerance >= 0:  # also false for nan
        raise PreconditionError(f"tolerance must be >= 0, got {tolerance}")


def _integer_pairs(scalars: Sequence[QScalar]) -> tuple[int, int, list[tuple[int, int]]]:
    """The field Q(sqrt(D)) and the common denominator L of the scalars'
    parts, and each scalar as the integer pair (s, t) meaning
    (s + t*sqrt(D))/L. Raises DiscriminantMismatch for scalars from two
    fields."""
    discs = sorted({c.disc for c in scalars} - {1})
    if len(discs) > 1:
        raise DiscriminantMismatch(f"cannot combine sqrt({discs[0]}) with sqrt({discs[1]})")
    den = math.lcm(*(f.denominator for c in scalars for f in (c.rat, c.rad)))
    scale = lambda f: f.numerator * (den // f.denominator)
    return discs[0] if discs else 1, den, [(scale(c.rat), scale(c.rad)) for c in scalars]


def ground_set_from_points(points: Sequence[QPoint], label: str = "points") -> GroundSet:
    """Interns the exact squared distances of all point pairs.

    The coordinates must share one field Q(sqrt(D)). Scaled by the common
    denominator L of their parts, each coordinate is an integer pair (s, t)
    meaning (s + t*sqrt(D))/L, so the squared distance of a pair is an
    integer pair (A, B) meaning (A + B*sqrt(D))/L^2. Pairs are interned on
    those tuples, the distinct tuples are ordered by exact integer sign
    tests, and a QScalar is built only for each distinct value.
    Raises DiscriminantMismatch for points from two fields and
    PreconditionError naming the first pair, in pair order, of equal points."""
    disc, den, pairs = _integer_pairs([c for p in points for c in (p.x, p.y)])
    scaled = [x + y for x, y in zip(pairs[::2], pairs[1::2])]
    dist = []
    for i, (xs, xt, ys, yt) in enumerate(scaled):
        for us, ut, vs, vt in scaled[i + 1 :]:
            a, b, c, d = xs - us, xt - ut, ys - vs, yt - vt
            dist.append((a * a + c * c + (b * b + d * d) * disc, 2 * (a * b + c * d)))
    n = len(points)
    if (0, 0) in dist:
        raise _duplicate_points(n, dist.index((0, 0)))
    order = sorted(set(dist), key=cmp_to_key(lambda v, w: _sign(v[0] - w[0], v[1] - w[1], disc)))
    rank = {v: r for r, v in enumerate(order)}
    sq = den * den
    values = [QScalar(Fraction(a, sq), Fraction(b, sq), disc) for a, b in order]
    return _from_ranks(label, "coordinates", n, [rank[v] for v in dist], values)


def ground_set_from_matrix(
    n: int, entries: Sequence[QScalar], label: str = "matrix"
) -> GroundSet:
    if n < 0:
        raise PreconditionError(f"matrix size must be >= 0, got {n}")
    if len(entries) != n * (n - 1) // 2:
        raise PreconditionError(
            f"expected {n * (n - 1) // 2} upper-triangle entries, got {len(entries)}"
        )
    if any(e.sign() <= 0 for e in entries):
        raise PreconditionError("squared distances must be positive")
    values = sorted(set(entries))
    rank = {v: r for r, v in enumerate(values)}
    return _from_ranks(label, "distance-matrix", n, [rank[e] for e in entries], values)


def ground_set_from_floats(
    points: Sequence[tuple[float, float]],
    tolerance: float = DEFAULT_TOLERANCE,
    label: str = "float",
) -> GroundSet:
    """Tolerance path: squared distances are divided by the largest one
    and sorted, and a new rank starts only where the gap to the previous
    value exceeds `tolerance`. So values chained by gaps of at most the
    tolerance share a rank, and a tolerance of 0 means exact float equality.
    `values` holds the smallest raw squared distance of each rank."""
    check_tolerance(tolerance)
    if not all(map(math.isfinite, chain.from_iterable(points))):
        raise PreconditionError("float coordinates must be finite")
    try:
        raw = [(p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 for p, q in combinations(points, 2)]
    except OverflowError:  # a squared difference past the float range
        raw = [math.inf]
    diam = max(raw, default=0.0)
    if diam == math.inf:  # also a sum, or a difference, that overflowed
        raise PreconditionError("float squared distances overflow the float range")
    if 0.0 in raw:
        raise _duplicate_points(len(points), raw.index(0.0))
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
