"""Distinct-triangle censuses on the square grid, triangular lattice, and
general positive-definite rational lattices.

A census keys each triangle at a longest side PQ, up to the signed coordinate
permutations that keep the form and up to swapping P and Q, and skips third
vertices collinear with PQ when degenerate triangles are excluded
(`_longest_sides`). For d = Q - P and one row u of third vertices c = R - P,
the kept c form at most two runs of consecutive v (`_runs`), along which the
key q(c) * 2**w + q(c - d) is a quadratic in v (`_side_keys`); the longest
side h = q(d) stays out of the key, as keys with different h never collide.
Each task of whole h groups sorts each group's keys in place and returns one
count; the counts add up with no merge. A d whose h no other d of its task
holds is counted without keys (`_mirror_count`): two of its c share a key
only as mirror images in the line through 0 and d, the reflection behind
the paper's minimal congruency sets, and the image of c is a lattice point
iff m = h / gcd(h, du, dv) divides the linear L(c). A d whose mirror maps
(0, 1) into the lattice keeps its keys: there every c of a run or none would
be tested, and sorting is faster. `general_lattice_census` keeps the
translation-only enumeration of vertex pairs, an independent check, with the
three sorted squared sides packed into one int64 by `keys`.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm

import numpy as np

from .errors import CostGuardExceeded, PreconditionError
from .keys import key_width, nonzero_area, pack_sorted, sorted_unique

# The largest n the all-triples oracle runs at.
ORACLE_LIMIT = 8
# Cells of the c boxes (a bound on the shape keys) per census task; fixed, so
# the task list does not depend on workers, and small, so a task's keys take
# at most 8 MB.
_TASK_KEYS = 1_000_000
# Bytes a longest-side census may hold at once over all its processes;
# checked before any task runs (`_check_memory`).
_MEMORY_BUDGET = 2 << 30
# `_side_keys` evaluates keys in batches of whole runs, starting a batch at
# the first run that starts past a multiple of _BATCH_KEYS keys; a run is
# shorter than 2n, so a batch holds fewer than 2 * _BATCH_KEYS keys.
_BATCH_KEYS = 1 << 16
# Bytes per u row of the temporaries of `_runs` and `_side_keys`; tracemalloc
# measures at most 180 beyond the two batch temporaries.
_ROW_BYTES = 200


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
    workers: int  # processes that ran the chunks: 1 when serial

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
# Census tasks: each is a pure function of its arguments, so it gives the same
# result under any multiprocessing start method.


def _field_width(n: int, qa: int, qb: int, qc: int) -> int:
    return key_width((qa + abs(qb) + qc) * (n - 1) ** 2)


def _longest_sides(n: int, q: tuple[int, int, int]):
    """The longest sides d = Q - P that the census keys, sorted by h = q(d),
    each with the box of third vertices c = R - P it scans.

    d runs over the nonzero vectors of [-(n-1), n-1]^2 that are the largest,
    in row-major order, of their orbit under the signed permutations that
    keep the form; these map the box a triangle spans onto one of the same
    size. The c box is the span box (P, Q and R fit in the region) clipped to
    the boxes of the ellipses q(c) <= h and q(c - d) <= h; it always holds
    c = 0. Returns one int64 array with rows du, dv, h, u0, u1, v0, v1.
    """
    qa, qb, qc = q
    side = np.arange(-(n - 1), n, dtype=np.int64)
    # the (du, dv) grid by broadcasting a column against a row, so each orbit
    # image costs one temporary rank array
    col, size = side[:, None], side.size
    rank = col * size + side  # row-major order
    keep = rank != 0
    for s, t in [(s, t) for s in (1, -1) for t in (1, -1) if s * t * qb == qb]:
        keep &= rank >= s * col * size + t * side
        if qa == qc:
            keep &= rank >= s * side * size + t * col
    i, j = np.nonzero(keep)
    du, dv = side[i], side[j]
    h = qa * du * du + qb * du * dv + qc * dv * dv
    order = np.argsort(h, kind="stable")
    du, dv, h = du[order], dv[order], h[order]
    # |u| <= sqrt(4 qc h / disc) and |v| <= sqrt(4 qa h / disc) on q(x) <= h,
    # so r >= |d| per coordinate; the + 1 absorbs rounding, the exact ends
    # are in _runs
    disc = 4 * qa * qc - qb * qb
    ru = np.minimum(np.sqrt(4 * qc * h / disc).astype(np.int64) + 1, n - 1)
    rv = np.minimum(np.sqrt(4 * qa * h / disc).astype(np.int64) + 1, n - 1)
    return np.stack((du, dv, h, np.maximum(du, 0) - ru, np.minimum(du, 0) + ru,
                     np.maximum(dv, 0) - rv, np.minimum(dv, 0) + rv))


def _longest_side_tasks(n: int, q: tuple, width: int, include_degenerate: bool) -> list:
    """Tasks (q, width, include_degenerate, rows, cells): runs of whole h groups
    of the h-sorted `_longest_sides` rows, closed once their c boxes hold
    _TASK_KEYS cells (a bound on their keys). Keys of different h never
    collide, so the tasks' counts add up. The split depends on n and q only."""
    rows = _longest_sides(n, q)
    cells, h = ((rows[4] - rows[3] + 1) * (rows[6] - rows[5] + 1)).tolist(), rows[2].tolist()
    tasks, lo, load = [], 0, 0
    for i in range(1, len(h) + 1):
        load += cells[i - 1]
        if i == len(h) or (h[i] != h[i - 1] and load >= _TASK_KEYS):
            tasks.append((q, width, include_degenerate, rows[:, lo:i], load))
            lo, load = i, 0
    return tasks


def _key_dtype(width: int):
    """The longest-side kernel's key type, for two fields of `width` bits."""
    return np.uint32 if 2 * width <= 32 else np.int64


def _task_bytes(task: tuple) -> int:
    """A bound on the bytes a task holds at once: a key per c-box cell (the
    buffer holds only the kept ones), two batch temporaries of keys, and the
    temporaries of its u rows."""
    _, width, _, rows, cells = task
    return (np.dtype(_key_dtype(width)).itemsize * (cells + 4 * _BATCH_KEYS)
            + _ROW_BYTES * int((rows[4] - rows[3] + 1).sum()))


def _check_memory(tasks: list[tuple], workers: int) -> None:
    """Raise CostGuardExceeded when the processes that run the tasks, each
    holding at most `_task_bytes` of its largest task, could exceed
    _MEMORY_BUDGET. The charge counts c-box cells, an upper bound on the keys
    a task writes, as the exact count is known only once its runs are."""
    pool = max(1, min(workers, len(tasks)))
    peak = pool * max(map(_task_bytes, tasks))
    if peak > _MEMORY_BUDGET:
        raise CostGuardExceeded(
            f"census needs about {peak >> 20} MB in a pool of {pool}, "
            f"over its {_MEMORY_BUDGET >> 20} MB budget"
        )


def _runs(q, rows, include_degenerate):
    """The kept c of the rows' d as runs of consecutive v at one u: arrays
    (d, u, v, size) of each nonempty run's column in `rows`, its u, its first
    v and its length, in row-major order of c, one d after another.

    For fixed u the c with q(c - d) <= h form an interval of v, whose ends are
    the float roots of a quadratic made exact by integer checks at lo - 1, lo,
    hi and hi + 1. L(c) <= h, linear in c, cuts the interval, and the d's c
    box clips it. c = 0, and the c on the line through 0 and d unless
    `include_degenerate`, split a row into at most two runs; a d with du = 0
    loses its whole u = 0 row.
    """
    qa, qb, qc = q
    nu = rows[4] - rows[3] + 1
    d = np.repeat(np.arange(nu.size), nu)
    du, dv, h, u, _, v0, v1 = np.repeat(rows, nu, axis=1)
    u += np.arange(d.size) - np.repeat(np.cumsum(nu) - nu, nu)
    # q(c - d) <= h is qc*y^2 + qb*x*y <= h - qa*x^2 for (x, y) = c - d
    x = u - du
    rhs = h - qa * x * x
    root = np.sqrt(np.maximum(4 * qc * rhs + qb * qb * x * x, 0))
    lo = np.ceil(dv + (-qb * x - root) / (2 * qc)).astype(np.int64)
    hi = np.floor(dv + (-qb * x + root) / (2 * qc)).astype(np.int64)

    def inside(v):
        return (qc * (v - dv) + qb * x) * (v - dv) <= rhs

    # the float ends are within 1 of the exact ones
    lo -= inside(lo - 1)
    lo += ~inside(lo)
    hi += inside(hi + 1)
    hi -= ~inside(hi)
    lo, hi = np.maximum(lo, v0), np.minimum(hi, v1)
    # L(c) = lu u + lv v <= h is lv v <= rest
    lv, rest = qb * du + 2 * qc * dv, h - (2 * qa * du + qb * dv) * u
    bound = rest // np.maximum(np.abs(lv), 1)
    hi = np.where(lv > 0, np.minimum(hi, bound), hi)
    lo = np.where(lv < 0, np.maximum(lo, -bound), lo)
    drop = (lv == 0) & (rest < 0)
    if include_degenerate:
        on, cut = u == 0, 0
    else:  # du >= 0 by the orbit rule
        on = (du > 0) & (dv * u % np.maximum(du, 1) == 0)
        cut = dv * u // np.maximum(du, 1)
        drop |= (du == 0) & (u == 0)
    hi = np.where(drop, lo - 1, hi)
    cut = np.where(on, cut, hi + 1)
    # each row's runs before and after the cut
    first, size = np.empty((d.size, 2), dtype=np.int64), np.empty((d.size, 2), dtype=np.int64)
    first[:, 0] = lo
    np.maximum(lo, cut + 1, out=first[:, 1])
    np.minimum(hi, cut - 1, out=size[:, 0])
    size[:, 1] = hi
    size -= first - 1
    keep = np.flatnonzero(size > 0)
    return d[keep >> 1], u[keep >> 1], first.ravel()[keep], size.ravel()[keep]


def _side_keys(q, width, rows, include_degenerate):
    """The keys q(c) * 2**width + q(c - d) of the kept c of the rows' d, in
    `_runs` order, in a new buffer of `_key_dtype(width)` exactly as long as
    the keys, and each d's key count. Kept are the c != 0 with
    q(c) <= q(c - d) <= h, off the line through 0 and d unless
    `include_degenerate`: the triangles {0, d, c} with longest side d, one of
    each pair c, d - c that swapping P and Q exchanges.

    With L(c) = q(c) + h - q(c - d), linear in c, a key is (2**width + 1) q(c)
    - L(c) + h: along a run from v, the quadratic (a*t + s)*t + k in the step
    t = 0, 1, .... It is evaluated in the key type in batches of whole runs,
    about _BATCH_KEYS keys each; uint32 products may wrap, but every key fits,
    so the wrapped result is exact.
    """
    qa, qb, qc = q
    d, u, v, size = _runs(q, rows, include_degenerate)
    dtype = _key_dtype(width)
    du, dv, h = rows[0, d], rows[1, d], rows[2, d]
    lu, lv = 2 * qa * du + qb * dv, qb * du + 2 * qc * dv  # L(c) = lu u + lv v
    m = (1 << width) + 1
    a, b = m * qc, m * qb * u - lv
    k = ((a * v + b) * v + (m * qa * u - lu) * u + h).astype(dtype)
    s = (2 * a * v + b).astype(dtype)
    start = np.cumsum(size) - size
    # np.empty, not np.zeros: every element gets a key below
    out = np.empty(int(size.sum()), dtype=dtype)
    batches = [*np.flatnonzero(np.diff(start // _BATCH_KEYS, prepend=-1)).tolist(), size.size]
    for r0, r1 in zip(batches, batches[1:]):
        lo, hi, n = int(start[r0]), int(start[r1 - 1] + size[r1 - 1]), size[r0:r1]
        t = np.arange(hi - lo, dtype=dtype)
        t -= np.repeat((start[r0:r1] - lo).astype(dtype), n)
        keys = out[lo:hi]
        np.multiply(t, a, out=keys)
        keys += np.repeat(s[r0:r1], n)
        keys *= t
        keys += np.repeat(k[r0:r1], n)
    return out, np.bincount(d, weights=size, minlength=rows.shape[1]).astype(np.int64)


def _mirror_period(q, rows):
    """Per row, m = h / gcd(h, du, dv), so that the mirror image Rc of c is
    integral iff m divides L(c), and the period along v of that test."""
    qa, qb, qc = q
    du, dv, h = rows[:3]
    m = h // np.gcd(h, np.gcd(du, dv))
    return m, m // np.gcd(qb * du + 2 * qc * dv, m)


def _mirror_count(q, rows, include_degenerate):
    """The sum over the rows of the distinct keys of each row on its own:
    its kept c less its mirror pairs.

    Two c of one d with the same key lie on one form circle about 0 and one
    about d, which meet only in c and its mirror image in the line through 0
    and d, Rc = (L(c) / h) d - c. R keeps the key, L(c) and the collinear
    rule, so c pairs with another kept c iff Rc is integral, Rc != c and Rc
    is in the c box. With g = gcd(h, du, dv), Rc is integral iff m = h / g
    divides L(c): along a run, at every step-th v from a solution of
    lv v = -lu u (mod m), if one exists. Only those c are tested.
    """
    qa, qb, qc = q
    du, dv, h, u0, u1, v0, v1 = rows
    m, step = _mirror_period(q, rows)
    lu, lv = 2 * qa * du + qb * dv, qb * du + 2 * qc * dv  # L(c) = lu u + lv v
    g = m // step  # gcd(lv, m)
    inv = np.array([pow(a, -1, s) for a, s in zip((lv // g).tolist(), step.tolist())],
                   dtype=np.int64)
    eu, ev = du // (h // m), dv // (h // m)  # Rc = (L(c) / m) (eu, ev) - c
    d, u, v, size = _runs(q, rows, include_degenerate)
    sd = step[d]
    a, rem = np.divmod(lu[d] * u, g[d])
    # |a| <= |lu u| < 2**22 and inv < step <= h < 2**21 under the key width
    # guard, so the product stays below 2**43
    first = v + (-a * inv[d] - v) % sd
    count = np.maximum((v + size - 1 - first) // sd + 1, 0) * (rem == 0)
    # the tested c, one run after another
    j = np.repeat(np.arange(d.size), count)
    cu = u[j]
    cv = first[j] + (np.arange(j.size) - np.repeat(np.cumsum(count) - count, count)) * sd[j]
    e = d[j]
    t = (lu[e] * cu + lv[e] * cv) // m[e]
    ru, rv = t * eu[e] - cu, t * ev[e] - cv
    paired = int(np.count_nonzero(((ru != cu) | (rv != cv)) & (u0[e] <= ru) & (ru <= u1[e])
                                  & (v0[e] <= rv) & (rv <= v1[e])))
    assert paired % 2 == 0  # R pairs them off
    return int(size.sum()) - paired // 2


def _longest_side_chunk(task: tuple) -> int:
    """Distinct shapes whose longest side is one of the task's d.

    A row whose h no other row of the task holds shares no key with another
    row: `_mirror_count` counts it, unless its mirror period is 1 (R maps
    (0, 1) into the lattice, as on the square grid's axes and diagonal), so
    that it would test every c of a run or none and sorting is faster. The
    other rows keep their keys: keys of one h are contiguous and never equal
    keys of another h, so each h group is sorted in place on its own and
    counts 1 plus its adjacent differences.
    """
    q, width, include_degenerate, rows, _ = task
    h = rows[2]
    new = h[1:] != h[:-1]
    lone = np.append(True, new) & np.append(new, True) & (_mirror_period(q, rows)[1] > 1)
    distinct = _mirror_count(q, rows[:, lone], include_degenerate)
    rows = rows[:, ~lone]
    if rows.shape[1] == 0:
        return distinct
    keys, counts = _side_keys(q, width, rows, include_degenerate)
    ends = np.cumsum(counts)
    h = rows[2]
    ends = ends[np.append(h[1:] != h[:-1], True)].tolist()
    for lo, hi in zip([0, *ends], ends):
        keys[lo:hi].sort()
    total = ends[-1]
    if total == 0:
        return distinct
    differ = keys[1:total] != keys[: total - 1]
    differ[[e - 1 for e in ends[:-1] if 0 < e < total]] = True
    return distinct + 1 + int(np.count_nonzero(differ))


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
        out.append(pack_sorted(np.int64(w1), w2[mask], dq, width))
    return sorted_unique(out)


def _run_chunks(tasks: list[tuple], workers: int):
    """The sum of `_longest_side_chunk` over the tasks, and the number of
    processes that ran them (1 when serial)."""
    used = min(workers, len(tasks))
    if used <= 1:
        return sum(map(_longest_side_chunk, tasks)), 1
    # imported here, so that a serial run never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=used) as pool:
        return sum(pool.map(_longest_side_chunk, tasks, chunksize=1)), used


def _census(kind: LatticeKind, n: int, include_degenerate: bool, workers: int) -> ShapeCensus:
    """Longest-side census of the n x n region of `kind`."""
    if n < 2:
        raise PreconditionError(f"{kind.name} census needs n >= 2")
    t0 = time.monotonic()
    q = kind.gram.integer_scaled()
    tasks = _longest_side_tasks(n, q, _field_width(n, *q), include_degenerate)
    _check_memory(tasks, workers)
    distinct, used = _run_chunks(tasks, workers)
    return ShapeCensus(
        kind=kind.name,
        n=n,
        include_degenerate=include_degenerate,
        distinct=distinct,
        elapsed_ms=(time.monotonic() - t0) * 1000.0,
        workers=used,
    )


# ---------------------------------------------------------------------------
# Public census operations


def census(
    kind: LatticeKind, n: int, include_degenerate: bool = True, workers: int = 1
) -> ShapeCensus:
    """Distinct triangle shapes over all triples of the n x n region of `kind`.

    The single census entry point; every kind runs the longest-side census
    (square and triangular kinds through `grid_census` and
    `tri_lattice_census`). Counts do not depend on `workers` or on the
    multiprocessing start method.
    """
    if kind.name == "square":
        return grid_census(n, include_degenerate, workers)
    if kind.name == "triangular":
        return tri_lattice_census(n, include_degenerate, workers)
    return _census(kind, n, include_degenerate, workers)


def grid_census(n: int, include_degenerate: bool = True, workers: int = 1) -> ShapeCensus:
    """Distinct triangle shapes over all triples of the n x n square grid.

    Each triangle is keyed at a longest side d, with d taken up to the eight
    symmetries of the grid: only d with du >= dv >= 0 are scanned.
    """
    return _census(LatticeKind.square(), n, include_degenerate, workers)


def tri_lattice_census(
    n: int, include_degenerate: bool = True, workers: int = 1
) -> ShapeCensus:
    """Distinct triangle shapes over all triples of the n x n triangular lattice.

    In coefficient coordinates the region is a rhombus with 60-degree corners
    at (0,0) and (n-1,n-1) and 120-degree corners at (n-1,0) and (0,n-1); it
    holds n^2 points. Each triangle is keyed at a longest side d, with d
    taken up to the four signed permutations d -> +-(du, dv), +-(dv, du) that
    keep the form.
    """
    return _census(LatticeKind.triangular(), n, include_degenerate, workers)


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
    width = _field_width(n, *q)
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
# Brute-force oracle


def all_triples_census(
    n: int, kind: LatticeKind, include_degenerate: bool = True
) -> ShapeCensus:
    """O(N^6) validation oracle: distinct shapes over all C(n^2, 3) triples,
    with no reduction whatsoever."""
    if n > ORACLE_LIMIT:
        raise CostGuardExceeded(f"all-triples oracle refused for n={n} > {ORACLE_LIMIT}")
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


def census_series(
    kind: LatticeKind,
    n_values: list[int],
    include_degenerate: bool = True,
    workers: int = 1,
) -> list[ShapeCensus]:
    """One census per n value, ascending; each n is computed independently."""
    if not n_values:
        raise PreconditionError("n_values must be nonempty")
    if sorted(n_values) != list(n_values):
        raise PreconditionError("n_values must be ascending")
    return [census(kind, n, include_degenerate, workers) for n in n_values]


@dataclass(frozen=True)
class RatioFit:
    c: float  # leading n^4 coefficient
    d: float  # next-order n^3 coefficient
    residual: float


def ratio_fit(rows: list[ShapeCensus]) -> RatioFit:
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
