"""Regular n-gon triangle combinatorics and exact maximum-subset search.

The search runs over a `GroundSet` (see `geometry`). Regular 5-/10-gons have
no quadratic-field coordinates, but their squared chords live in Q(sqrt(5)),
so the exact n-gons are given by squared-distance matrices.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .errors import CostGuardExceeded, PreconditionError
from .geometry import (
    DEFAULT_TOLERANCE,
    GroundSet,
    QPoint,
    ground_set_from_floats,
    ground_set_from_matrix,
    ground_set_from_points,
)
from .qscalar import QScalar

GROUND_SET_LIMIT = 64

_HALF = Fraction(1, 2)
# Square chord lengths 4 sin^2(pi k / n) of the unit-circle regular n-gon,
# keyed (n, k) for 1 <= k <= n/2, for the n whose chords live in a single
# quadratic field.
_CHORD_SQ = {
    (3, 1): QScalar(3),
    (4, 1): QScalar(2), (4, 2): QScalar(4),
    (5, 1): QScalar(Fraction(5, 2), -_HALF, 5),
    (5, 2): QScalar(Fraction(5, 2), _HALF, 5),
    (6, 1): QScalar(1), (6, 2): QScalar(3), (6, 3): QScalar(4),
    (8, 1): QScalar(2, -1, 2), (8, 2): QScalar(2),
    (8, 3): QScalar(2, 1, 2), (8, 4): QScalar(4),
    (10, 1): QScalar(Fraction(3, 2), -_HALF, 5),
    (10, 2): QScalar(Fraction(5, 2), -_HALF, 5),
    (10, 3): QScalar(Fraction(3, 2), _HALF, 5),
    (10, 4): QScalar(Fraction(5, 2), _HALF, 5),
    (10, 5): QScalar(4),
    (12, 1): QScalar(2, -1, 3), (12, 2): QScalar(1), (12, 3): QScalar(2),
    (12, 4): QScalar(3), (12, 5): QScalar(2, 1, 3), (12, 6): QScalar(4),
}
_EXACT_NGON = {n for n, _ in _CHORD_SQ}


def ngon_distinct_triangles(n: int) -> int:
    """Distinct triangles of the regular n-gon: multisets {i,j,k} of positive
    arc lengths with i + j + k = n, the partitions of n into three parts,
    whose number is the integer nearest n^2/12."""
    if n < 3:
        raise PreconditionError("n-gon needs n >= 3")
    return (n * n + 6) // 12


def ngon_asymptotic_check(n_values: Sequence[int]) -> list[tuple[int, int, float]]:
    """Rows (n, count, count/n^2); the ratio tends to 1/12."""
    rows = []
    for n in n_values:
        c = ngon_distinct_triangles(n)
        rows.append((n, c, c / n**2))
    return rows


# ---------------------------------------------------------------------------
# Ground sets


def make_ngon_ground_set(n: int, tolerance: float = DEFAULT_TOLERANCE) -> GroundSet:
    """Regular n-gon on the unit circle: exact distance matrix when the
    chords fit one quadratic field, float mode otherwise."""
    if n < 3:
        raise PreconditionError("n-gon needs n >= 3")
    if n in _EXACT_NGON:
        # vertices i < j are min(j - i, n - j + i) steps apart around the polygon
        entries = [
            _CHORD_SQ[n, min(j - i, n - j + i)] for i in range(n) for j in range(i + 1, n)
        ]
        return ground_set_from_matrix(n, entries, label=f"ngon:{n}")
    pts = [
        (math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n))
        for k in range(n)
    ]
    return ground_set_from_floats(pts, tolerance, label=f"ngon:{n}")


def grid_ground_set(n: int) -> GroundSet:
    if n < 1:
        raise PreconditionError("grid needs n >= 1")
    pts = [QPoint(u, v) for u in range(n) for v in range(n)]
    return ground_set_from_points(pts, label=f"grid:{n}")


# ---------------------------------------------------------------------------
# Branch and bound


def check_ground_size(size: int) -> None:
    """Refuses a search over more than GROUND_SET_LIMIT points; the CLI asks
    with the size a ground spec names, before the set is built."""
    if size > GROUND_SET_LIMIT:
        raise CostGuardExceeded(f"ground set of size {size} exceeds limit {GROUND_SET_LIMIT}")


@dataclass
class SearchResult:
    max_size: int
    witnesses: list[tuple[int, ...]]
    nodes_explored: int
    elapsed_ms: float


def max_subset_with_k_shapes(
    ground: GroundSet, k: int, size_cap: Optional[int] = None
) -> SearchResult:
    """Exact maximum-cardinality subsets spanning at most k distinct shapes.

    Depth-first over candidate indices in ascending order; each call carries
    the chosen tuple and the frozenset of shapes it spans. Branches are cut
    when the shape budget is blown or when the remaining candidates cannot
    reach the incumbent. All maximum witnesses are returned, in index order;
    geometric symmetry is not quotiented.
    """
    if k < 1:
        raise PreconditionError("k must be >= 1")
    check_ground_size(ground.size)
    t0 = time.monotonic()
    n = ground.size
    cap = min(size_cap, n) if size_cap is not None else n
    best = 0
    witnesses: list[tuple[int, ...]] = []
    nodes = 0
    key = ground.shape_key

    def dfs(chosen: tuple[int, ...], shapes: frozenset, start: int) -> None:
        nonlocal best, witnesses, nodes
        size = len(chosen)
        if size > best:
            best, witnesses = size, [chosen]
        elif size == best and chosen:
            witnesses.append(chosen)
        if size >= cap:
            return
        for i in range(start, n):
            if size + (n - i) < best:
                break  # even taking everything left cannot beat the incumbent
            grown = shapes.union([key(a, b, i) for a, b in combinations(chosen, 2)])
            if len(grown) > k:
                continue
            nodes += 1
            dfs(chosen + (i,), grown, i + 1)

    dfs((), frozenset(), 0)
    return SearchResult(best, witnesses, nodes, (time.monotonic() - t0) * 1000.0)
