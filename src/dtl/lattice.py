"""Distinct-triangle censuses on the square grid, triangular lattice, and
general positive-definite rational lattices.

Shape keys are triples of integer squared side lengths packed into a single
int64 (three equal-width bit fields, sorted ascending), so deduplication is a
sort-and-unique over numpy arrays. The square grid uses the origin-vertex
reduction; the triangular lattice anchors at both inequivalent corners of the
coefficient rhombus; general lattices fall back to the conservative
translation-plus-span reduction.
"""

from __future__ import annotations

import enum
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm

import numpy as np

from .errors import CostGuardExceeded, PreconditionError

DEFAULT_ORACLE_LIMIT = 8
_CHUNK_PAIRS = 4_000_000  # target raw keys per task, fixed so results don't depend on workers
_FLUSH_KEYS = 60_000_000  # pending keys buffered before merging into the accumulator


@dataclass(frozen=True)
class GramForm:
    """Squared distance of a coefficient delta (du, dv) is a*du^2 + b*du*dv + c*dv^2."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __init__(self, a, b, c):
        a, b, c = Fraction(a), Fraction(b), Fraction(c)
        if not (a > 0 and 4 * a * c - b * b > 0):
            raise PreconditionError(f"Gram form ({a},{b},{c}) is not positive definite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    def integer_scaled(self) -> tuple[int, int, int]:
        """Integer multiple of the form; scaling all squared distances by a
        positive constant preserves shape distinctness and degeneracy."""
        m = lcm(self.a.denominator, self.b.denominator, self.c.denominator)
        return (int(self.a * m), int(self.b * m), int(self.c * m))

    def q(self, du: int, dv: int) -> Fraction:
        return self.a * du * du + self.b * du * dv + self.c * dv * dv


SQUARE_GRAM = GramForm(1, 0, 1)
TRIANGULAR_GRAM = GramForm(1, 1, 1)


@dataclass(frozen=True)
class LatticeKind:
    name: str
    gram: GramForm

    @staticmethod
    def square() -> "LatticeKind":
        return LatticeKind("square", SQUARE_GRAM)

    @staticmethod
    def triangular() -> "LatticeKind":
        return LatticeKind("triangular", TRIANGULAR_GRAM)

    @staticmethod
    def general(gram: GramForm) -> "LatticeKind":
        return LatticeKind("general", gram)


@dataclass(frozen=True)
class ShapeCensus:
    kind: str
    n: int
    include_degenerate: bool
    distinct: int
    elapsed_ms: float
    workers: int

    @property
    def ratio(self) -> float:
        """``distinct / n**4``, where n is the side length in lattice points."""
        return self.distinct / float(self.n) ** 4


class BoundingBoxClass(enum.Enum):
    TWO_ON_BOX = "two-vertices-on-box"
    THREE_ON_BOX = "three-vertices-on-box"


def bounding_box_class(a: tuple[int, int], b: tuple[int, int]) -> BoundingBoxClass:
    """Classify origin-vertex triangle {O, a, b} (first quadrant) by how many
    vertices lie on the boundary of its axis-aligned bounding rectangle."""
    if a == (0, 0) or b == (0, 0) or a == b:
        raise PreconditionError("O, a, b must be pairwise distinct")
    xmax = max(0, a[0], b[0])
    ymax = max(0, a[1], b[1])
    xmin = min(0, a[0], b[0])
    ymin = min(0, a[1], b[1])

    def on_box(p):
        return p[0] in (xmin, xmax) or p[1] in (ymin, ymax)

    n_on = sum(1 for p in ((0, 0), a, b) if on_box(p))
    return BoundingBoxClass.THREE_ON_BOX if n_on == 3 else BoundingBoxClass.TWO_ON_BOX


# ---------------------------------------------------------------------------
# Packed shape keys


def _field_width(n: int, qa: int, qb: int, qc: int) -> int:
    qmax = (qa + abs(qb) + qc) * (n - 1) ** 2
    w = max(qmax.bit_length(), 1)
    if 3 * w > 63:
        raise CostGuardExceeded(f"squared distances up to {qmax} overflow the packed key")
    return w


def _pack_sorted(x, y, z, width: int):
    lo = np.minimum(np.minimum(x, y), z)
    hi = np.maximum(np.maximum(x, y), z)
    mid = x + y + z - lo - hi
    return (lo << (2 * width)) | (mid << width) | hi


def _unpack(keys: np.ndarray, width: int):
    mask = (np.int64(1) << width) - 1
    return (keys >> (2 * width)) & mask, (keys >> width) & mask, keys & mask


def _nondegenerate_count(keys: np.ndarray, width: int) -> int:
    a, b, c = _unpack(keys, width)
    area16 = 2 * (a * b + b * c + c * a) - a * a - b * b - c * c
    return int(np.count_nonzero(area16))


def _sorted_unique(arrays: list[np.ndarray]) -> np.ndarray:
    arr = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
    arrays.clear()
    arr.sort()
    if arr.size == 0:
        return arr
    keep = np.empty(arr.size, dtype=bool)
    keep[0] = True
    np.not_equal(arr[1:], arr[:-1], out=keep[1:])
    return arr[keep]


class _KeyAccumulator:
    """Collects packed keys, merging in bounded batches to cap peak memory."""

    def __init__(self):
        self.acc: np.ndarray | None = None
        self.pending: list[np.ndarray] = []
        self.pending_size = 0

    def add(self, arr: np.ndarray) -> None:
        if arr.size == 0:
            return
        self.pending.append(arr)
        self.pending_size += arr.size
        if self.pending_size >= _FLUSH_KEYS:
            self._flush()

    def _flush(self) -> None:
        if self.acc is not None:
            self.pending.append(self.acc)
            self.acc = None
        self.acc = _sorted_unique(self.pending)
        self.pending_size = 0

    def result(self) -> np.ndarray:
        self._flush()
        return self.acc if self.acc is not None else np.empty(0, dtype=np.int64)


# ---------------------------------------------------------------------------
# Chunked pair enumeration (worker tasks)
#
# A task carries everything its chunk needs, so a chunk is a pure function of
# its task and gives the same keys under any multiprocessing start method.


def _anchored_chunk(task: tuple) -> np.ndarray:
    """Packed shape keys for pairs (i, j), i in [lo, hi), j > i, deduplicated.

    The task is (n, (qa, qb, qc), anchor, (lo, hi)); the points are the n x n
    coefficient grid minus the anchor, as deltas from the anchor.
    """
    n, (qa, qb, qc), anchor, (lo, hi) = task
    u, v = np.meshgrid(np.arange(n, dtype=np.int64), np.arange(n, dtype=np.int64))
    u, v = u.ravel(), v.ravel()
    keep = ~((u == anchor[0]) & (v == anchor[1]))
    du, dv = u[keep] - anchor[0], v[keep] - anchor[1]
    w = qa * du * du + qb * du * dv + qc * dv * dv
    width = _field_width(n, qa, qb, qc)
    out = []
    for i in range(lo, hi):
        dx = du[i] - du[i + 1 :]
        dy = dv[i] - dv[i + 1 :]
        dq = qa * dx * dx + qb * dx * dy + qc * dy * dy
        out.append(_pack_sorted(w[i], w[i + 1 :], dq, width))
    if not out:
        return np.empty(0, dtype=np.int64)
    return _sorted_unique(out)


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
    width = _field_width(n, qa, qb, qc)
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
        out.append(_pack_sorted(np.int64(w1), w2[mask], dq, width))
    if not out:
        return np.empty(0, dtype=np.int64)
    return _sorted_unique(out)


def _pair_chunk_bounds(npts: int) -> list[tuple[int, int]]:
    """Deterministic i-ranges with roughly _CHUNK_PAIRS pairs each."""
    bounds = []
    lo = 0
    pairs = 0
    for i in range(npts):
        pairs += npts - i - 1
        if pairs >= _CHUNK_PAIRS or i == npts - 1:
            bounds.append((lo, i + 1))
            lo, pairs = i + 1, 0
    return bounds


def _run_chunks(fn, tasks: list[tuple], workers: int) -> np.ndarray:
    """Sorted distinct keys over all tasks; the merge is a set union, so the
    result does not depend on the number of workers or on scheduling order."""
    acc = _KeyAccumulator()
    if workers <= 1 or len(tasks) <= 1:
        for t in tasks:
            acc.add(fn(t))
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            for arr in pool.map(fn, tasks, chunksize=1):
                acc.add(arr)
    return acc.result()


def _census(
    kind: LatticeKind, n: int, include_degenerate: bool, workers: int,
    anchors: list[tuple[int, int]] | None,
) -> ShapeCensus:
    """Anchored census when `anchors` is given, else translation-only."""
    if n < 2:
        raise PreconditionError(f"{kind.name} census needs n >= 2")
    t0 = time.monotonic()
    q = kind.gram.integer_scaled()
    width = _field_width(n, *q)
    if anchors is None:
        ndeltas = (2 * n - 1) ** 2
        tasks = [(n, q, (i, min(i + 64, ndeltas))) for i in range(0, ndeltas, 64)]
        keys = _run_chunks(_delta_chunk, tasks, workers)
    else:
        # One task list over all anchors, so one pool serves the whole census.
        bounds = _pair_chunk_bounds(n * n - 1)
        tasks = [(n, q, anchor, b) for anchor in anchors for b in bounds]
        keys = _run_chunks(_anchored_chunk, tasks, workers)
    distinct = keys.size if include_degenerate else _nondegenerate_count(keys, width)
    return ShapeCensus(
        kind=kind.name,
        n=n,
        include_degenerate=include_degenerate,
        distinct=distinct,
        elapsed_ms=(time.monotonic() - t0) * 1000.0,
        workers=workers,
    )


# ---------------------------------------------------------------------------
# Public census operations


def census(
    kind: LatticeKind, n: int, include_degenerate: bool = True, workers: int = 1
) -> ShapeCensus:
    """Distinct triangle shapes over all triples of the n x n region of `kind`.

    The single census entry point: square and triangular kinds use their
    anchored reductions, any other kind the translation-only general path.
    Counts do not depend on `workers` or on the multiprocessing start method.
    """
    if kind.name == "square":
        return grid_census(n, include_degenerate, workers)
    if kind.name == "triangular":
        return tri_lattice_census(n, include_degenerate, workers)
    return general_lattice_census(kind.gram, n, include_degenerate, workers)


def grid_census(n: int, include_degenerate: bool = True, workers: int = 1) -> ShapeCensus:
    """Distinct triangle shapes over all triples of the n x n square grid.

    Every grid triangle is congruent to one with a vertex at the origin, so
    only origin-anchored pairs are enumerated.
    """
    return _census(LatticeKind.square(), n, include_degenerate, workers, [(0, 0)])


def tri_lattice_census(
    n: int, include_degenerate: bool = True, workers: int = 1
) -> ShapeCensus:
    """Distinct triangle shapes over all triples of the n x n triangular lattice.

    In coefficient coordinates the region is a rhombus with 60-degree corners
    at (0,0) and (n-1,n-1) and 120-degree corners at (n-1,0) and (0,n-1); it
    holds n^2 points. Anchoring at one corner of each kind covers every shape.
    """
    anchors = [(0, 0), (n - 1, 0)]
    return _census(LatticeKind.triangular(), n, include_degenerate, workers, anchors)


def general_lattice_census(
    gram: GramForm, n: int, include_degenerate: bool = True, workers: int = 1
) -> ShapeCensus:
    """Distinct triangle shapes in the n x n coefficient box of an arbitrary
    positive-definite lattice, via translation reduction over delta pairs.

    The bounding-box corner argument is specific to forms with extra symmetry,
    so this path only quotients by translation: it enumerates pairs of deltas
    (d1, d2) whose coordinate span fits in the box.
    """
    return _census(LatticeKind.general(gram), n, include_degenerate, workers, None)


# ---------------------------------------------------------------------------
# Brute-force oracle


def oracle_limit() -> int:
    env = os.environ.get("DTL_ORACLE_LIMIT")
    return int(env) if env else DEFAULT_ORACLE_LIMIT


def all_triples_census(
    n: int, kind: LatticeKind, include_degenerate: bool = True
) -> ShapeCensus:
    """O(N^6) validation oracle: distinct shapes over all C(n^2, 3) triples,
    with no reduction whatsoever."""
    limit = oracle_limit()
    if n > limit:
        raise CostGuardExceeded(
            f"all-triples oracle refused for n={n} > {limit} "
            f"(set DTL_ORACLE_LIMIT to override)"
        )
    if n < 2:
        raise PreconditionError("oracle needs n >= 2")
    t0 = time.monotonic()
    qa, qb, qc = kind.gram.integer_scaled()

    def q(p, r):
        du, dv = p[0] - r[0], p[1] - r[1]
        return qa * du * du + qb * du * dv + qc * dv * dv

    pts = [(u, v) for u in range(n) for v in range(n)]
    shapes = set()
    for a, b, c in combinations(pts, 3):
        s = tuple(sorted((q(a, b), q(a, c), q(b, c))))
        shapes.add(s)
    if not include_degenerate:
        shapes = {
            (x, y, z)
            for x, y, z in shapes
            if 2 * (x * y + y * z + z * x) - x * x - y * y - z * z != 0
        }
    return ShapeCensus(
        kind=kind.name,
        n=n,
        include_degenerate=include_degenerate,
        distinct=len(shapes),
        elapsed_ms=(time.monotonic() - t0) * 1000.0,
        workers=1,
    )


# ---------------------------------------------------------------------------
# Series and curve fitting


@dataclass
class SeriesRow:
    kind: str
    n: int
    include_degenerate: bool
    distinct: int
    ratio: float
    elapsed_ms: float
    workers: int


def census_series(
    kind: LatticeKind,
    n_values: list[int],
    include_degenerate: bool = True,
    workers: int = 1,
) -> list[SeriesRow]:
    """One census per n value, ascending; each n is computed independently."""
    if not n_values:
        raise PreconditionError("n_values must be nonempty")
    if sorted(n_values) != list(n_values):
        raise PreconditionError("n_values must be ascending")
    rows = []
    for n in n_values:
        c = census(kind, n, include_degenerate, workers)
        rows.append(
            SeriesRow(c.kind, c.n, c.include_degenerate, c.distinct, c.ratio,
                      c.elapsed_ms, c.workers)
        )
    return rows


@dataclass(frozen=True)
class RatioFit:
    c: float  # leading n^4 coefficient
    d: float  # next-order n^3 coefficient
    residual: float


def ratio_fit(rows: list[SeriesRow]) -> RatioFit:
    """Ordinary least squares of distinct ~ c*n^4 + d*n^3."""
    if len(rows) < 3:
        raise PreconditionError("ratio_fit needs at least 3 rows")
    ns = np.array([r.n for r in rows], dtype=float)
    ys = np.array([r.distinct for r in rows], dtype=float)
    if np.all(ns == ns[0]):
        raise PreconditionError("all n values equal; fit is singular")
    design = np.column_stack([ns**4, ns**3])
    coef, _, _, _ = np.linalg.lstsq(design, ys, rcond=None)
    residual = float(np.linalg.norm(design @ coef - ys))
    return RatioFit(float(coef[0]), float(coef[1]), residual)
