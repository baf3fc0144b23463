"""Independent references the tests check dtl's fast paths against.

No CLI command runs these; they stay plain and separate from the code they
check on purpose:

- `general_lattice_census` (with `_delta_chunk` and `sorted_unique`, its
  streaming merge of packed keys): the translation-only census over
  vertex-difference pairs, with packed shape keys, against the longest-side
  census;
- `rotate_exact`, `is_rotatable_by` and `rotatable_points`: rotation by one
  triple's angle, point by point, against the rotatable-pair table and
  `count_rotatable_points`;
- `minimal_congruency_set`, `_minimal_set_undefined` and `_origin_pairs`:
  the per-pair Lemma 3.1 scan, against `verify_minimality`;
- `TriangleShape`, `shape_of` and `is_degenerate`: one exact shape per
  triple, against `GroundSet`'s rank keys, which `distinct_triangle_count`
  turns into shapes;
- `verify_subset`: the witness check of the search.

`field_width` is the packed-key width of an n x n region of a form.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from dtl.errors import PreconditionError
from dtl.geometry import GroundSet, QPoint, ground_set_from_points, sq_dist
from dtl.keys import key_width, merge, nonzero_area, pack_sorted
from dtl.lattice import BoundingBoxClass, GramForm, ShapeCensus, bounding_box_class
from dtl.qscalar import QScalar, _coerce
from dtl.rotation import Point, PythTriple


def field_width(n: int, qa: int, qb: int, qc: int) -> int:
    """Bits per packed-key field for the squared distances of an n x n
    region of the form (qa, qb, qc)."""
    return key_width((qa + abs(qb) + qc) * (n - 1) ** 2)


# ---------------------------------------------------------------------------
# The translation-only census

# The fewest pending keys `sorted_unique` merges at once, so its memory stays
# a small multiple of the result.
_MERGE_KEYS = 10_000_000


def sorted_unique(arrays) -> np.ndarray:
    """Sorted distinct keys over an iterable of int64 key arrays. Pending
    arrays merge into the result, pending[0], once they hold as many keys as
    it and at least _MERGE_KEYS, so memory stays a small multiple of it."""
    pending, size = [np.empty(0, dtype=np.int64)], 0
    for arr in arrays:
        pending.append(arr)
        size += arr.size
        if size >= max(pending[0].size, _MERGE_KEYS):
            pending, size = [merge(pending)], 0
    return merge(pending)


def _delta_chunk(task: tuple) -> np.ndarray:
    """Packed shape keys for delta pairs (d1, d2), d1 in [lo, hi), deduplicated.

    The task is (n, (qa, qb, qc), (lo, hi)); the deltas are the (2n-1)^2
    coefficient differences of the n x n box, in flat row-major order.
    """
    n, (qa, qb, qc), (lo, hi) = task
    coords = np.arange(2 * n - 1, dtype=np.int64) - (n - 1)
    d2u, d2v = np.meshgrid(coords, coords)
    d2u, d2v = d2u.ravel(), d2v.ravel()
    w2 = qa * d2u * d2u + qb * d2u * d2v + qc * d2v * d2v
    flat = np.arange(d2u.size)
    width = field_width(n, qa, qb, qc)
    out = []
    for i1 in range(lo, hi):
        u1, v1 = int(d2u[i1]), int(d2v[i1])
        if u1 == 0 and v1 == 0:
            continue
        # Unordered pairs once (flat index order); both deltas nonzero.
        mask = (flat > i1) & ~((d2u == 0) & (d2v == 0))
        # The three points {0, d1, d2} must fit in the box after translation.
        span_u = np.maximum(np.maximum(u1, d2u), 0) - np.minimum(np.minimum(u1, d2u), 0)
        span_v = np.maximum(np.maximum(v1, d2v), 0) - np.minimum(np.minimum(v1, d2v), 0)
        mask &= (span_u <= n - 1) & (span_v <= n - 1)
        du = u1 - d2u[mask]
        dv = v1 - d2v[mask]
        dq = qa * du * du + qb * du * dv + qc * dv * dv
        w1 = qa * u1 * u1 + qb * u1 * v1 + qc * v1 * v1
        out.append(pack_sorted(np.int64(w1), w2[mask], dq, width))
    return sorted_unique(out)


def general_lattice_census(
    gram: GramForm, n: int, include_degenerate: bool = True
) -> ShapeCensus:
    """Distinct triangle shapes in the n x n coefficient box of an arbitrary
    positive-definite lattice, via translation reduction over delta pairs.

    This path only quotients by translation: it enumerates pairs of deltas
    (d1, d2) whose coordinate span fits in the box, and merges the keys of
    all tasks. It shares no enumeration with `census`, which it cross-checks.
    It is the small-n cross-check, run serially in one process: it has no
    memory guard and holds its whole result, so it peaks at about 350 MB
    `ru_maxrss` at triangular n = 75 and about 3.1 GB at n = 150.
    """
    if n < 2:
        raise PreconditionError("general census needs n >= 2")
    t0 = time.monotonic()
    q = gram.integer_scaled()
    width = field_width(n, *q)
    ndeltas = (2 * n - 1) ** 2
    tasks = [(n, q, (i, min(i + 64, ndeltas))) for i in range(0, ndeltas, 64)]
    keys = sorted_unique(map(_delta_chunk, tasks))
    distinct = keys.size
    if not include_degenerate:  # in cache-sized slices, so the temporaries stay small
        slices = (keys[s : s + (1 << 16)] for s in range(0, keys.size, 1 << 16))
        distinct = sum(int(np.count_nonzero(nonzero_area(k, width))) for k in slices)
    return ShapeCensus(
        kind="general",
        n=n,
        include_degenerate=include_degenerate,
        distinct=distinct,
        elapsed_ms=(time.monotonic() - t0) * 1000.0,
        workers=1,
    )


# ---------------------------------------------------------------------------
# Rotation by one triple's angle


Triangle = frozenset  # of Point, always containing the origin

ORIGIN: Point = (0, 0)


def rotate_exact(pt: Point, t: PythTriple) -> Point | None:
    """Exact image of pt under the triple's rotation, or None when the image
    leaves the lattice."""
    a, b = pt
    nx = a * t.q - b * t.p
    ny = a * t.p + b * t.q
    if nx % t.r or ny % t.r:
        return None
    return (nx // t.r, ny // t.r)


def is_rotatable_by(pt: Point, t: PythTriple) -> bool:
    return rotate_exact(pt, t) is not None


def rotatable_points(n: int, t: PythTriple) -> list[Point]:
    """All points of [n] x [n] rotatable by the triple's angle, the origin
    included (it is fixed by every rotation)."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
    r = t.r
    c = t.p * pow(t.q, -1, r) % r
    pts = []
    for b in range(n):
        a = (c * b) % r
        while a < n:
            pts.append((a, b))
            a += r
    return pts


# ---------------------------------------------------------------------------
# Minimal congruency sets (origin-vertex triangles in the first quadrant)


def _sq(p: Point) -> int:
    return p[0] * p[0] + p[1] * p[1]


def _shape_key(a: Point, b: Point) -> tuple[int, int, int]:
    d = (a[0] - b[0], a[1] - b[1])
    return tuple(sorted((_sq(a), _sq(b), _sq(d))))


_AXIS_PARALLEL = "axis-parallel side: minimal congruency set undefined"


def _minimal_set_undefined(a: Point, b: Point) -> str | None:
    """Why {O, a, b} has no minimal congruency set, or None if it has one."""
    if a == ORIGIN or b == ORIGIN or a == b:
        return "degenerate: O, a, b must be pairwise distinct"
    if min(a + b) < 0:
        return "triangle must lie in the first quadrant"
    s1, s2, s3 = _shape_key(a, b)
    if s1 == s2 or s2 == s3:
        return "isosceles triangle has no minimal congruency set"
    if s1 + s2 == s3:
        return "right triangle has no minimal congruency set"
    if 2 * (s1 * s2 + s2 * s3 + s3 * s1) - s1 * s1 - s2 * s2 - s3 * s3 == 0:
        return "degenerate triangle has no minimal congruency set"
    if 0 in (a[0], a[1], b[0], b[1]) or a[0] == b[0] or a[1] == b[1]:
        return _AXIS_PARALLEL
    return None


def minimal_congruency_set(a: Point, b: Point) -> set[Triangle]:
    """The 2- or 4-element set of origin-vertex triangles forced congruent to
    {O, a, b} by grid symmetry (transpose, and vertex-difference for the
    two-on-box type)."""
    reason = _minimal_set_undefined(a, b)
    if reason is not None:
        raise PreconditionError(reason)
    t = lambda p: (p[1], p[0])
    if bounding_box_class(a, b) is BoundingBoxClass.THREE_ON_BOX:
        tris = [(a, b), (t(a), t(b))]
    else:
        # One vertex is strictly inside the box; normalize so it is b.
        if not (a[0] > b[0] and a[1] > b[1]):
            a, b = b, a
        diff = (a[0] - b[0], a[1] - b[1])
        tris = [(a, b), (t(a), t(b)), (a, diff), (t(a), t(diff))]
    return {frozenset((ORIGIN, u, v)) for u, v in tris}


def _origin_pairs(n: int):
    """Every origin-vertex triangle {O, a, b} of [n] x [n] once, as
    (shape key, a, b); a brute-force scan over all pairs."""
    pts = [(u, v) for u in range(n) for v in range(n) if (u, v) != ORIGIN]
    for i, a in enumerate(pts):
        for b in pts[i + 1 :]:
            yield _shape_key(a, b), a, b


# ---------------------------------------------------------------------------
# Exact triangle shapes


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
    return s.sixteen_area_sq() == 0


def distinct_triangle_count(
    points: Sequence[QPoint], include_degenerate: bool = True
) -> tuple[int, list[TriangleShape]]:
    """Number of distinct triangle shapes over all C(n,3) triples of the set,
    and the shapes in ascending (s1, s2, s3) order."""
    ground = ground_set_from_points(list(points))
    v = ground.values
    shapes = [TriangleShape(*(v[r] for r in s)) for s in ground.sorted_sides(include_degenerate)]
    return len(shapes), shapes


# ---------------------------------------------------------------------------
# Search witnesses


def verify_subset(ground: GroundSet, indices: Sequence[int], k: int) -> bool:
    """Post-hoc witness check, independent of search internals."""
    idx = list(indices)
    if len(set(idx)) != len(idx):
        raise PreconditionError("indices must be distinct")
    for i in idx:
        if not 0 <= i < ground.size:
            raise PreconditionError(f"index {i} out of range")
    return len(ground.distinct_shapes(idx)) <= k
