"""Primitive Pythagorean triples, the points and origin triangles of
[n] x [n] that one triple's angle keeps on the lattice, minimal congruency
sets with the Lemma 3.1 scan, the Lemma 3.2 and 3.3 bound checks, and the
tail-bounded constant sum.

Convention: a triple (p, q, r) encodes the rotation angle with cos = q/r and
sin = p/r, so the image of (a, b) is ((a*q - b*p)/r, (a*p + b*q)/r). A point
is rotatable by that angle iff both coordinates of the image are integers,
which collapses to the single congruence a = c*b (mod r) with c = p * q^-1.

Every triple comes from one numpy generator over coprime m > n >= 1 of
opposite parity (`_triple_arrays`): each m gets its range of n, and one
Euclid gcd over each block's (m, n) keeps the coprime cells, which makes
every triple primitive. `constant_sum` sums each block's terms exactly
(`_exact_parts`) and rounds the total once. Every rotatable pair comes from
one table (`_rotatable_pairs`), built for all triples at once: each triple's
rotatable points are encoded as integers and paired, and the pairs are
deduplicated by one sort. `count_rotatable_triangles` classifies the table
with array operations. `verify_minimality` runs the Lemma 3.1 scan as one
array pass over all origin pairs. The per-pair and per-point references the
tests check these against (`minimal_congruency_set`, `_origin_pairs`,
`rotatable_points`) are in `tests/reference.py`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from math import gcd, isqrt

import numpy as np

from .errors import CostGuardExceeded, PreconditionError
from .keys import key_width, nonzero_area, pack_sorted, unpack

Point = tuple[int, int]

ROTATABLE_TRIANGLE_LIMIT = 64
MINIMALITY_LIMIT = 12
# The largest max_r `enum_primitive_triples` lists: its PythTriple objects
# take about 100 MB per 10^6 of max_r.
TRIPLE_LIST_LIMIT = 10**7
_INT64_MAX_R = isqrt(2**63 - 1)  # the largest r whose r^2 fits in int64
_TRIPLE_CELLS = 1 << 16  # (m, n) cells per block of `_triple_arrays`
_PAIR_BLOCK = 1 << 13  # pairs per block of the passes over the pair table


@dataclass(frozen=True, order=True)
class PythTriple:
    p: int
    q: int
    r: int

    def __post_init__(self):
        if self.p <= 0 or self.q <= 0:
            raise PreconditionError("legs must be positive")
        if self.p * self.p + self.q * self.q != self.r * self.r:
            raise PreconditionError(f"({self.p},{self.q},{self.r}) is not a Pythagorean triple")
        if gcd(self.p, self.q) != 1:
            raise PreconditionError(f"({self.p},{self.q},{self.r}) is not primitive")


def _triple_arrays(max_r: int):
    """Primitive triples with hypotenuse <= max_r, one leg order, in blocks
    of consecutive m: int64 arrays p = m^2 - n^2, q = 2mn and r = m^2 + n^2
    over the coprime m > n >= 1 of opposite parity, ordered by m, then n.
    A block spans at most _TRIPLE_CELLS (m, n) cells. Refuses a max_r whose
    r^2 would overflow int64.

    Each m runs over its own n = 1 + m % 2, 3 + m % 2, ... up to
    min(m - 1, isqrt(max_r - m^2)), and one Euclid gcd over the block's
    (m, n) keeps the coprime cells. For m and n of opposite parity,
    gcd(p, q) = 1 exactly when gcd(m, n) = 1, so every triple is primitive."""
    if max_r > _INT64_MAX_R:
        raise CostGuardExceeded(f"triples refused for max_r={max_r} > {_INT64_MAX_R}")
    m_end = isqrt(max_r - 1) + 1  # m runs while m^2 + 1 <= max_r
    lo = 2
    while lo < m_end:
        hi = min(m_end, max(lo + 1, isqrt(lo * lo + _TRIPLE_CELLS)))
        rows = np.arange(lo, hi)
        rest = max_r - rows * rows  # >= 1
        top = np.sqrt(rest).astype(np.int64)  # off by at most one: made exact
        top -= top * top > rest
        top += (top + 1) * (top + 1) <= rest
        first = 1 + rows % 2
        count = (np.minimum(rows - 1, top) - first) // 2 + 1  # >= 0
        start = np.cumsum(count) - count
        m = np.repeat(rows, count)
        n = np.repeat(first - 2 * start, count) + 2 * np.arange(m.size)
        # n < m < m_end <= 55,109 under the int64 guard, so uint16 holds both
        coprime = np.gcd(m.astype(np.uint16), n.astype(np.uint16)) == 1
        m, n = m[coprime], n[coprime]
        p, q, r = m * m - n * n, 2 * m * n, m * m + n * n
        assert (p > 0).all() and (q > 0).all()
        assert (p * p + q * q == r * r).all()
        yield p, q, r
        lo = hi


def _both_leg_orders(max_r: int):
    """The triples of `_triple_arrays(max_r)` in both leg orders: int64
    arrays p, q, r holding every (p, q, r) and then every (q, p, r)."""
    p, q, r = (np.concatenate(a) for a in zip(*_triple_arrays(max_r)))
    return np.concatenate((p, q)), np.concatenate((q, p)), np.concatenate((r, r))


def enum_primitive_triples(max_r: int) -> list[PythTriple]:
    """All primitive triples with hypotenuse <= max_r, both leg orders,
    sorted by (r, p). Generated from coprime m > n >= 1 of opposite parity
    via (m^2 - n^2, 2mn, m^2 + n^2). Refuses a max_r above
    TRIPLE_LIST_LIMIT before any triple is built."""
    if max_r < 5:
        raise PreconditionError("max_r must be at least 5")
    if max_r > TRIPLE_LIST_LIMIT:
        raise CostGuardExceeded(f"triple list refused for max_r={max_r} > {TRIPLE_LIST_LIMIT}")
    p, q, r = _both_leg_orders(max_r)
    order = np.lexsort((p, r))
    return [PythTriple(*t) for t in zip(*(a[order].tolist() for a in (p, q, r)))]


def count_primitive_triples(max_r: int) -> int:
    """len(enum_primitive_triples(max_r)), from the generator's blocks, with
    no triple built."""
    if max_r < 5:
        raise PreconditionError("max_r must be at least 5")
    return 2 * sum(r.size for _, _, r in _triple_arrays(max_r))


def count_rotatable_points(n: int, t: PythTriple) -> int:
    """The number of points of [n] x [n] rotatable by the triple's angle,
    the origin included, without building the points.

    Row b holds a = c*b mod r and a + r, a + 2r, ... below n: (n - 1 - a) // r
    + 1 points, which is 0 when a >= n. With a = c*b - r*(c*b // r), the sum
    over the rows is n plus two floor sums."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
    r = t.r
    c = t.p * pow(t.q, -1, r) % r
    return n + _floor_sum(n, r, c, 0) + _floor_sum(n, r, -c, n - 1)


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum((a*i + b) // m for i in range(n)) for m >= 1, by Euclid-style
    reduction: O(log m) steps on Python ints."""
    total = 0
    while n:
        qa, a = divmod(a, m)
        qb, b = divmod(b, m)
        total += qa * (n * (n - 1) // 2) + qb * n
        y = a * n + b
        if y < m:
            break
        n, b, m, a = y // m, y % m, a, m
    return total


def _rotatable_pairs(n: int) -> np.ndarray:
    """Sorted distinct codes of the non-origin point pairs of [n] x [n] that
    one angle rotates together. A point (u, v) is the code u*n + v and a pair
    a < b is code(a)*n^2 + code(b).

    All triples at once: a triple's rotatable points are u = c*v mod r for
    each v < n, with c = p * q^-1 mod r, and u + r, u + 2r, ... when r < n.
    Its codes are sorted, and each is paired with the codes after it in its
    triple by one group-wise repeat."""
    max_r = 2 * (n - 1) * (n - 1)
    if max_r < 5:
        return np.empty(0, dtype=np.int64)
    p, q, r = _both_leg_orders(max_r)
    c = np.array([x * pow(y, -1, z) % z for x, y, z in zip(p.tolist(), q.tolist(), r.tolist())])
    u = c[:, None] * np.arange(n) % r[:, None]
    t, v = np.nonzero(u < n)
    u = u[t, v]
    reps = (n - 1 - u) // r[t] + 1  # 1 unless r < n
    t, u, v = np.repeat(t, reps), np.repeat(u, reps), np.repeat(v, reps)
    u += (np.arange(u.size) - np.repeat(np.cumsum(reps) - reps, reps)) * r[t]
    n2 = n * n
    key = np.sort(t * n2 + u * n + v)
    t, codes = np.divmod(key[key % n2 != 0], n2)  # the origin is code 0
    at = np.arange(codes.size)
    after = np.searchsorted(t, t, side="right") - 1 - at  # later codes of the triple
    start = np.cumsum(after) - after  # of each code's pairs
    pairs = np.empty(int(after.sum()), dtype=np.int64)
    # in blocks of whole codes, so the temporaries stay small beside the table
    cuts = [*np.flatnonzero(np.diff(start // _PAIR_BLOCK, prepend=-1)).tolist(), codes.size]
    for i0, i1 in zip(cuts, cuts[1:]):
        lo, k = int(start[i0]), after[i0:i1]
        block = pairs[lo : lo + int(k.sum())]
        block[:] = np.repeat(codes[i0:i1] * n2, k)
        block += codes[np.arange(block.size) - np.repeat(start[i0:i1] - lo - at[i0:i1] - 1, k)]
    pairs.sort()
    # drop the repeats in place: what is kept never passes what is read
    w, last = 0, -1
    for lo in range(0, pairs.size, _PAIR_BLOCK):
        block = pairs[lo : lo + _PAIR_BLOCK]
        keep = np.empty(block.size, dtype=bool)
        keep[0] = block[0] != last
        np.not_equal(block[1:], block[:-1], out=keep[1:])
        last = block[-1]
        kept = block[keep]
        pairs[w : w + kept.size] = kept
        w += kept.size
    return pairs[:w]


@dataclass(frozen=True)
class RotatableBreakdown:
    total: int
    three_on_box: int  # the count A in the grid theorem's bookkeeping
    two_on_box: int  # the count B

    def __post_init__(self):
        assert self.total == self.three_on_box + self.two_on_box


def count_rotatable_triangles(n: int) -> RotatableBreakdown:
    """Exact count of rotatable origin-vertex triangles in [n] x [n], broken
    down by bounding-box class. Desk-scale: refuses n above
    ROTATABLE_TRIANGLE_LIMIT."""
    if n < 2:
        raise PreconditionError("n must be >= 2")
    if n > ROTATABLE_TRIANGLE_LIMIT:
        raise CostGuardExceeded(
            f"rotatable-triangle count refused for n={n} > {ROTATABLE_TRIANGLE_LIMIT}"
        )
    pairs = _rotatable_pairs(n)
    # In the first quadrant the box is [0, max u] x [0, max v]: the origin is
    # a corner and b, with au <= bu, is on its side u = max u. So {O, a, b} is
    # three-on-box iff a is on the box too. In blocks of the table, so the
    # coordinate arrays stay small.
    three = 0
    for lo in range(0, pairs.size, _PAIR_BLOCK):
        a, b = np.divmod(pairs[lo : lo + _PAIR_BLOCK], n * n)
        (au, av), (bu, bv) = np.divmod(a, n), np.divmod(b, n)
        three += int(np.count_nonzero((au == 0) | (av == 0) | (au == bu) | (av >= bv)))
    return RotatableBreakdown(int(pairs.size), three, int(pairs.size) - three)


# ---------------------------------------------------------------------------
# The constant sum with integral tail bound


@dataclass(frozen=True)
class ConstantSum:
    cutoff: int
    partial: float  # sum of 1/(2 r^2) over both-order primitive triples, r <= cutoff
    tail_bound: float  # integral bound on the r > cutoff remainder
    total_bound: float


def _exact_parts(x: np.ndarray) -> list[float]:
    """A few floats whose exact sum is the exact sum of x: positive normal
    float64 values, fewer than 2^26 of them, with a finite sum.

    Each x = f * 2^e with f in [1/2, 1) is hi * 2^(e - 27) + lo * 2^(e - 53)
    for integers hi < 2^27 and lo < 2^26. np.bincount sums the hi and the
    lo of each e: integers below 2^53, so exact in any order. Scaling a sum
    by its power of two is exact too, since no part exceeds the sum of x and
    none has a bit below 2^-1074."""
    if not x.size:
        return []
    f, e = np.frexp(x)
    f *= 1 << 27
    hi = np.floor(f)
    lo = (f - hi) * (1 << 26)
    low = int(e.min())
    e -= low
    scale = np.arange(int(e.max()) + 1) + low
    hi_sums = np.ldexp(np.bincount(e, weights=hi), scale - 27)
    lo_sums = np.ldexp(np.bincount(e, weights=lo), scale - 53)
    return hi_sums.tolist() + lo_sums.tolist()


def constant_sum(cutoff: int = 10**5) -> ConstantSum:
    """Bound the full series sum of 1/(2 r^2) over primitive triples.

    At most 2*sqrt(r) triples share a hypotenuse r, so the tail beyond the
    cutoff is at most the integral of x^(-3/2), i.e. 2/sqrt(cutoff - 1).
    Each (m, n) pair is summed once and the sum doubled for the two leg
    orders, which is exact. `_exact_parts` turns each block's terms into a
    few floats with the same exact sum, and math.fsum rounds their exact sum
    correctly, so the partial is the correctly rounded sum of the terms.
    """
    if cutoff < 10**3:
        raise PreconditionError("cutoff must be at least 10^3")
    parts = (_exact_parts(1.0 / (2.0 * r * r)) for _, _, r in _triple_arrays(cutoff))
    partial = 2.0 * math.fsum(chain.from_iterable(parts))
    tail = 2.0 / math.sqrt(cutoff - 1)
    return ConstantSum(cutoff, partial, tail, partial + tail)


# ---------------------------------------------------------------------------
# Minimal congruency sets (origin-vertex triangles in the first quadrant)


@dataclass
class MinimalityReport:
    n: int
    checked: int
    skipped_axis_parallel: int
    violations: list[tuple[Point, Point]]


def _origin_keys(xu, xv, yu, yv, width: int) -> np.ndarray:
    """Packed sorted squared sides of the triangles {O, x, y}."""
    return pack_sorted(xu * xu + xv * xv, yu * yu + yv * yv,
                        (xu - yu) ** 2 + (xv - yv) ** 2, width)


def verify_minimality(n: int) -> MinimalityReport:
    """For every scalene, non-right, non-degenerate, non-axis-parallel and
    NON-rotatable origin-vertex triangle in [n] x [n], assert that its full
    congruency class equals its minimal congruency set. Refuses n < 4, which
    holds no such triangle, and n above MINIMALITY_LIMIT.

    One array pass over the origin pairs {O, a, b}, a before b in row-major
    order. The reasons a pair has no minimal congruency set (isosceles,
    right or degenerate, then an axis-parallel side) apply in that order,
    and pairs in the `_rotatable_pairs` table are dropped. The members of
    each minimal congruency set become pair codes. The minimal set is a
    subset of the class iff every member has the pair's shape key, and then
    equals it iff it has as many distinct members as the key has pairs."""
    if n < 4:
        raise PreconditionError(f"minimality scan needs n >= 4, got {n}")
    if n > MINIMALITY_LIMIT:
        raise CostGuardExceeded(f"minimality scan refused for n={n} > {MINIMALITY_LIMIT}")
    n2 = n * n
    i, j = np.triu_indices(n2 - 1, 1)
    i, j = i + 1, j + 1  # point codes u*n + v after the origin's 0
    (au, av), (bu, bv) = np.divmod(i, n), np.divmod(j, n)
    width = key_width(2 * (n - 1) ** 2)
    key = _origin_keys(au, av, bu, bv, width)
    _, cls, class_size = np.unique(key, return_inverse=True, return_counts=True)
    s1, s2, s3 = unpack(key, width)
    undefined = (s1 == s2) | (s2 == s3) | (s1 + s2 == s3) | ~nonzero_area(key, width)
    axis = (au == 0) | (av == 0) | (bu == 0) | (bv == 0) | (au == bu) | (av == bv)
    live = ~undefined & ~axis
    live[live] = ~np.isin(i[live] * n2 + j[live], _rotatable_pairs(n))
    au, av, bu, bv, key = (x[live] for x in (au, av, bu, bv, key))
    size = class_size[cls[live]]
    # Here au < bu, and {O, a, b} is three-on-box iff av > bv. Otherwise a
    # is inside the box and the members are b with a and with b - a; three
    # on box, the last two members repeat the first two.
    two = av < bv
    xu, xv = np.where(two, bu - au, au), np.where(two, bv - av, av)
    members = [(au, av, bu, bv), (av, au, bv, bu), (bu, bv, xu, xv), (bv, bu, xv, xu)]
    ok = np.ones(key.size, dtype=bool)
    codes = []
    for pu, pv, qu, qv in members:
        ok &= _origin_keys(pu, pv, qu, qv, width) == key
        cp, cq = pu * n + pv, qu * n + qv
        codes.append(np.minimum(cp, cq) * n2 + np.maximum(cp, cq))
    codes = np.sort(np.stack(codes, axis=1), axis=1)
    ok &= 1 + np.count_nonzero(codes[:, 1:] != codes[:, :-1], axis=1) == size
    bad = ~ok
    violations = list(zip(zip(au[bad].tolist(), av[bad].tolist()),
                          zip(bu[bad].tolist(), bv[bad].tolist())))
    return MinimalityReport(n, int(key.size), int(np.count_nonzero(~undefined & axis)), violations)


# ---------------------------------------------------------------------------
# Lemma bound checks


@dataclass
class BoundCheckCase:
    triple: PythTriple
    n: int
    count: int
    bound: int
    ok: bool


@dataclass
class BoundCheckReport:
    cases: list[BoundCheckCase]

    @property
    def violations(self) -> list[BoundCheckCase]:
        return [c for c in self.cases if not c.ok]


def rotatable_point_bound(n: int, r: int) -> int:
    """The per-angle bound on rotatable-point counts in [n] x [n].

    The covering argument bounds non-origin rotatable points; the origin is
    trivially rotatable and is part of every covering subrow, so the large-r
    case allows exactly the origin.
    """
    if r > 2 * n * n:
        return 1  # origin only
    if r >= n:
        return n
    return r * math.ceil(n / r) ** 2


def lemma32_bound_check(max_r: int, max_n: int) -> BoundCheckReport:
    if max_r < 5 or max_n < 1:
        raise PreconditionError(
            f"bound check needs max_r >= 5 and max_n >= 1, got {max_r} and {max_n}"
        )
    if max_r > 100 or max_n > 50:
        raise CostGuardExceeded("bound check limited to max_r <= 100, max_n <= 50")
    cases = []
    for t in enum_primitive_triples(max_r):
        for n in range(1, max_n + 1):
            count = count_rotatable_points(n, t)
            bound = rotatable_point_bound(n, t.r)
            cases.append(BoundCheckCase(t, n, count, bound, count <= bound))
    return BoundCheckReport(cases)


@dataclass
class SpotCheckReport:
    m: int
    n: int
    triple: PythTriple
    count: int
    bound: int
    ok: bool


def smallest_triple_with_r_at_least(r_min: int) -> PythTriple:
    """The primitive triple (smaller leg first) with minimal hypotenuse >= r_min.
    A prime = 1 (mod 4), a primitive hypotenuse, lies in (x, 2x] for x >= 7
    (Breusch 1932), so r <= 2 r_min + 8 holds it; the + 8 covers r_min < 7."""
    found = []
    for p, q, r in _triple_arrays(2 * max(r_min, 0) + 8):
        keep = r >= r_min
        if keep.any():
            r, p = r[keep], np.minimum(p, q)[keep]
            i = np.lexsort((p, r))[0]
            found.append((int(r[i]), int(p[i])))
    r, p = min(found)
    return PythTriple(p, isqrt(r * r - p * p), r)


def lemma33_spot_check(m: int, n: int, t: PythTriple) -> SpotCheckReport:
    """Refined bound for large hypotenuses: with m > 4, n >= m^5 and
    r >= 2 m^4 n, at most n/m points of [n] x [n] are rotatable."""
    if m <= 4:
        raise PreconditionError("hypothesis violated: m > 4 required")
    if n < m**5:
        raise PreconditionError(f"hypothesis violated: n >= m^5 = {m**5} required")
    if t.r < 2 * m**4 * n:
        raise PreconditionError(
            f"hypothesis violated: r >= 2 m^4 n = {2 * m**4 * n} required"
        )
    count = count_rotatable_points(n, t)
    bound = n // m
    return SpotCheckReport(m, n, t, count, bound, count <= bound)
