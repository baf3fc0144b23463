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

# Square chord lengths 4 sin^2(pi k / n) of the unit-circle regular n-gon,
# for the n whose chords live in a single quadratic field.
_EXACT_NGON = {3, 4, 5, 6, 8, 10, 12}


def _chord_sq(n: int, k: int) -> QScalar:
    """Exact squared distance between n-gon vertices k steps apart."""
    half = Fraction(1, 2)
    table = {
        (3, 1): QScalar(3),
        (4, 1): QScalar(2), (4, 2): QScalar(4),
        (5, 1): QScalar(Fraction(5, 2), -half, 5),
        (5, 2): QScalar(Fraction(5, 2), half, 5),
        (6, 1): QScalar(1), (6, 2): QScalar(3), (6, 3): QScalar(4),
        (8, 1): QScalar(2, -1, 2), (8, 2): QScalar(2),
        (8, 3): QScalar(2, 1, 2), (8, 4): QScalar(4),
        (10, 1): QScalar(Fraction(3, 2), -half, 5),
        (10, 2): QScalar(Fraction(5, 2), -half, 5),
        (10, 3): QScalar(Fraction(3, 2), half, 5),
        (10, 4): QScalar(Fraction(5, 2), half, 5),
        (10, 5): QScalar(4),
        (12, 1): QScalar(2, -1, 3), (12, 2): QScalar(1), (12, 3): QScalar(2),
        (12, 4): QScalar(3), (12, 5): QScalar(2, 1, 3), (12, 6): QScalar(4),
    }
    return table[(n, min(k % n, n - k % n))]


def ngon_distinct_triangles(n: int) -> int:
    """Distinct triangles of the regular n-gon: multisets {i,j,k} of positive
    arc lengths with i + j + k = n."""
    if n < 3:
        raise PreconditionError("n-gon needs n >= 3")
    count = 0
    for i in range(1, n // 3 + 1):
        for j in range(i, (n - i) // 2 + 1):
            if n - i - j >= j:
                count += 1
    return count


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
        entries = [
            _chord_sq(n, j - i) for i in range(n) for j in range(i + 1, n)
        ]
        return ground_set_from_matrix(n, entries, label=f"ngon:{n}")
    pts = [
        (math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n))
        for k in range(n)
    ]
    return ground_set_from_floats(pts, tolerance, label=f"ngon:{n}")


def grid_ground_set(n: int) -> GroundSet:
    pts = [QPoint(u, v) for u in range(n) for v in range(n)]
    return ground_set_from_points(pts, label=f"grid:{n}")


# ---------------------------------------------------------------------------
# Branch and bound


@dataclass
class SearchResult:
    k: int
    max_size: int
    witnesses: list[tuple[int, ...]]
    nodes_explored: int
    elapsed_ms: float


def max_subset_with_k_shapes(
    ground: GroundSet, k: int, size_cap: Optional[int] = None
) -> SearchResult:
    """Exact maximum-cardinality subsets spanning at most k distinct shapes.

    Depth-first over candidate indices in ascending order with an incremental
    shape set; branches are cut when the shape budget is blown or when the
    remaining candidates cannot reach the incumbent. All maximum witnesses
    are returned, in index order; geometric symmetry is not quotiented.
    """
    if k < 1:
        raise PreconditionError("k must be >= 1")
    if ground.size > GROUND_SET_LIMIT:
        raise CostGuardExceeded(
            f"ground set of size {ground.size} exceeds limit {GROUND_SET_LIMIT}"
        )
    t0 = time.monotonic()
    n = ground.size
    cap = min(size_cap, n) if size_cap is not None else n

    # Greedy pass seeds the incumbent bound (witnesses come from the DFS).
    greedy: list[int] = []
    gshapes: set = set()
    for i in range(n):
        added = _new_shapes(ground, greedy, i, gshapes)
        if len(gshapes | added) <= k and len(greedy) + 1 <= cap:
            gshapes |= added
            greedy.append(i)
    best = len(greedy)
    witnesses: list[tuple[int, ...]] = []
    nodes = 0

    chosen: list[int] = []
    shapes: set = set()

    def dfs(start: int) -> None:
        nonlocal best, witnesses, nodes
        size = len(chosen)
        if size > best:
            best, witnesses = size, [tuple(chosen)]
        elif size == best and chosen:
            witnesses.append(tuple(chosen))
        if size >= cap:
            return
        for i in range(start, n):
            if size + (n - i) < best:
                break  # even taking everything left cannot beat the incumbent
            added = _new_shapes(ground, chosen, i, shapes)
            if len(shapes) + len(added) > k:
                continue
            nodes += 1
            chosen.append(i)
            shapes.update(added)
            dfs(i + 1)
            chosen.pop()
            shapes.difference_update(added)

    dfs(0)
    witnesses = [w for w in witnesses if len(w) == best]
    return SearchResult(k, best, witnesses, nodes, (time.monotonic() - t0) * 1000.0)


def _new_shapes(ground: GroundSet, chosen: list[int], i: int, have: set) -> set:
    key = ground.shape_key
    return {key(a, b, i) for a, b in combinations(chosen, 2)} - have


def verify_subset(ground: GroundSet, indices: Sequence[int], k: int) -> bool:
    """Post-hoc witness check, independent of search internals."""
    idx = list(indices)
    if len(set(idx)) != len(idx):
        raise PreconditionError("indices must be distinct")
    for i in idx:
        if not 0 <= i < ground.size:
            raise PreconditionError(f"index {i} out of range")
    return len(ground.distinct_shapes(idx)) <= k
