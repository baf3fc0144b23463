"""Distinct-triangle censuses on the square grid, triangular lattice, and
general positive-definite rational lattices.

A census keys each triangle at a longest side PQ, up to the signed coordinate
permutations that keep the form and up to swapping P and Q, and skips third
vertices collinear with PQ when degenerate triangles are excluded
(`_longest_sides`). For d = Q - P and one row u of third vertices c = R - P,
the kept c form at most two runs of consecutive v (`_runs`); the shape of
{0, d, c} is h = q(d), q(c) and q(c - d), and d of one h form a group.
Two kept (d, c), (d', c') of one group have one shape iff an isometry that
fixes 0 takes d to d' and c to c'. The two that take d to d' are
rho(c) = (L(c) d' +- X(c) p(d')) / (2h), with L(c) = q(c) + h - q(c - d),
X(c) = du v - dv u and p(d') the integral q-perpendicular of d'; for d' = d
the minus sign is the mirror in the line through 0 and d, the reflection
behind the paper's minimal congruency sets. Order the kept c of a group by
their d's place in it, and put c with X(c) > 0 before its mirror image: a
group has as many shapes as kept c that no rho takes to an earlier kept c.
So each task counts its kept c less those (`_longest_side_chunk`), with no
shape keys: rho(c) is integral on a sublattice of the c (`_maps`), whose c
along a run are an arithmetic progression, and those that rho takes into
the c box of d', so to kept c of d', are one range of it (`_taken`).
A task is whole h groups of about _TASK_ROWS c-box u rows, which one
process evaluates in one pass; before any runs, the census charges each
task bytes per c-box u row and cell (`_task_bytes`) against its budget,
and refuses a region whose squared distances reach 2^21 (`_check_exact`).
The translation-only census the tests check this one against is in
`tests/reference.py`.
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

# The largest n the all-triples oracle runs at.
ORACLE_LIMIT = 8
# c-box u rows per census task, evaluated at once; fixed, so the task list
# does not depend on workers.
_TASK_ROWS = 8000
# Bytes a longest-side census may hold at once over all its processes;
# checked before any task runs (`_check_memory`).
_MEMORY_BUDGET = 2 << 30
# `_task_bytes` charges _ROW_BYTES per c-box u row and _CELL_BYTES per c-box
# cell: over what a task holds, the temporaries of `_runs` and of the
# progressions of its maps (under tracemalloc at most 0.7 of the charge on
# the censuses of `test_task_peak_stays_within_its_charge`).
_ROW_BYTES = 600
_CELL_BYTES = 1
# More steps than any run has.
_FAR = 1 << 40


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


def _check_exact(n: int, q: tuple[int, int, int]) -> None:
    """Raise CostGuardExceeded unless (qa + |qb| + qc) (n - 1)^2 < 2**21.
    That bounds every squared distance of the n x n region, and keeps the
    int32 and float arithmetic of `_runs` and `_maps` exact."""
    qa, qb, qc = q
    top = (qa + abs(qb) + qc) * (n - 1) ** 2
    if top >= 1 << 21:
        raise CostGuardExceeded(
            f"census refused for n={n}: squared distances up to {top} reach 2^21, past the "
            "bound that keeps the int32 and float arithmetic of _runs and _maps exact"
        )


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


def _longest_side_tasks(n: int, q: tuple, include_degenerate: bool) -> list:
    """Tasks (q, include_degenerate, rows): runs of whole h groups of the
    h-sorted `_longest_sides` rows, closed once their c boxes hold
    _TASK_ROWS u rows. Triangles with different h never have one shape, so
    the tasks' counts add up. The split depends on n and q only."""
    rows = _longest_sides(n, q)
    urows, h = (rows[4] - rows[3] + 1).tolist(), rows[2].tolist()
    tasks, lo, load = [], 0, 0
    for i in range(1, len(h) + 1):
        load += urows[i - 1]
        if i == len(h) or (h[i] != h[i - 1] and load >= _TASK_ROWS):
            tasks.append((q, include_degenerate, rows[:, lo:i]))
            lo, load = i, 0
    return tasks


def _task_bytes(task: tuple) -> int:
    """A bound on the bytes a task holds at once, from its c boxes alone:
    _ROW_BYTES per u row and _CELL_BYTES per cell."""
    _, _, (_, _, _, u0, u1, v0, v1) = task
    urows = u1 - u0 + 1
    return int((urows * (_ROW_BYTES + _CELL_BYTES * (v1 - v0 + 1))).sum())


def _check_memory(tasks: list[tuple], workers: int) -> None:
    """Raise CostGuardExceeded when the processes that run the tasks, each
    holding at most `_task_bytes` of its largest task, could exceed
    _MEMORY_BUDGET. The charge counts c-box rows and cells, known before the
    runs are."""
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

    Each d's u rows are those of its c box; a row outside the half-lens
    q(c - d) <= h, L(c) <= h gets an empty interval. For fixed u the
    c with q(c - d) <= h form an interval of v, whose ends are the float
    roots of a quadratic, moved out by 1e-6 and made exact by one integer
    check each. L(c) <= h, linear in c, cuts the interval, and the d's c box
    clips it. c = 0, and the c on the line through 0 and d unless
    `include_degenerate`, split a row into at most two runs; a d with du = 0
    loses its whole u = 0 row.
    """
    qa, qb, qc = q
    ulo = rows[3]
    nu = rows[4] - ulo + 1
    # int32 holds the coordinates and every term below but the root's,
    # taken in floats: under `_check_exact`
    # (qa + |qb| + qc) (n - 1)^2 < 2**21, and |x|, |v - dv| < 2n
    d = np.repeat(np.arange(nu.size, dtype=np.int32), nu)
    du, dv, h, v0, v1 = np.repeat(rows[[0, 1, 2, 5, 6]].astype(np.int32), nu, axis=1)
    u = np.arange(d.size, dtype=np.int32)
    u += np.repeat((ulo - (np.cumsum(nu) - nu)).astype(np.int32), nu)
    # q(c - d) <= h is qc*y^2 + qb*x*y <= h - qa*x^2 for (x, y) = c - d
    x = u - du
    rhs = h - qa * x * x
    root = np.sqrt(np.maximum(4.0 * qc * rhs + float(qb * qb) * x * x, 0))
    # the float roots are within 1e-6 of the exact ones, so these ends are
    # the exact ones or one outside them
    mid = dv - qb * x / (2 * qc)
    root /= 2 * qc
    lo = np.ceil(mid - root - 1e-6).astype(np.int32)
    hi = np.floor(mid + root + 1e-6).astype(np.int32)
    lo += (qc * (lo - dv) + qb * x) * (lo - dv) > rhs
    hi -= (qc * (hi - dv) + qb * x) * (hi - dv) > rhs
    np.maximum(lo, v0, out=lo)
    np.minimum(hi, v1, out=hi)
    # L(c) = lu u + lv v <= h is lv v <= rest
    lv, rest = qb * du + 2 * qc * dv, h - (2 * qa * du + qb * dv) * u
    bound = _floor_div(rest, np.maximum(np.abs(lv), 1))
    hi = np.where(lv > 0, np.minimum(hi, bound), hi)
    lo = np.where(lv < 0, np.maximum(lo, -bound), lo)
    drop = (lv == 0) & (rest < 0)
    if include_degenerate:
        on, cut = u == 0, 0
    else:  # du >= 0 by the orbit rule
        cut = _floor_div(dv * u, np.maximum(du, 1))
        on = (du > 0) & (cut * du == dv * u)
        drop |= (du == 0) & (u == 0)
    hi[drop] = lo[drop] - 1
    cut = np.where(on, cut, hi + 1)
    # each row's runs before and after the cut
    first, size = np.empty((d.size, 2), dtype=np.int32), np.empty((d.size, 2), dtype=np.int32)
    first[:, 0] = lo
    np.maximum(lo, cut + 1, out=first[:, 1])
    np.minimum(hi, cut - 1, out=size[:, 0])
    size[:, 1] = hi
    size -= first - 1
    keep = np.flatnonzero(size > 0)
    return d[keep >> 1], u[keep >> 1], first.ravel()[keep], size.ravel()[keep]


def _floor_div(x, y):
    """x // y for integer arrays with |x| < 2**53, by float division: unless
    x / y is an integer, its distance to the next one, at least 1 / |y|,
    exceeds the rounding error, below |x / y| 2**-53."""
    return np.floor(x / y).astype(np.int64)


def _maps(q, rows):
    """The isometries rho that take a kept c of a row to a kept c of an
    earlier row of its h group, or the mirror of a row in its own line:
    (maps, covers). maps are arrays (r, p, mirror, a, b, e, mat, den) in
    row order: the map of row r to row p is c -> mat c / den, integral on
    the c with u = 0 (mod a) and v = (u / a) b (mod e). covers are arrays
    (r, p, mirror, mat) of each row's first map integral on every c
    (den = 1), for the rows that have one.

    Writing rho = mat / den in lowest terms, rho(c) is integral iff
    mat c = 0 (mod den): mat has determinant +-den^2 and coprime entries,
    so this is one linear congruence and a sublattice of index den = a e.
    Entries of mat are below 4 (qa + |qb| + qc) (n - 1)^2 < 2**23 in an
    n x n region under `_check_exact`, so mat c and mat e stay far
    below 2**53.
    """
    qa, qb, qc = q
    du, dv, h = rows[:3]
    # d and L(c) = lu u + lv v
    dl = np.stack((du, dv, 2 * qa * du + qb * dv, qb * du + 2 * qc * dv))
    new = np.ones(h.size, dtype=bool)
    np.not_equal(h[1:], h[:-1], out=new[1:])
    # each row against each earlier row of its group, with both signs, and
    # against itself with the minus sign
    at = np.arange(h.size)
    at -= np.maximum.accumulate(np.where(new, at, 0))
    count = 2 * at + 1
    r = np.arange(h.size).repeat(count)
    i = np.arange(r.size) - (count.cumsum() - count).repeat(count)
    p = r - at.repeat(count) + i // 2
    s = np.where((i % 2 == 0) & (p != r), 1, -1)
    (du, dv, lu, lv), (pu, pv, plu, plv) = dl[:, r], dl[:, p]
    mat = np.stack((pu * lu + s * plv * dv, pu * lv - s * plv * du,
                    pv * lu - s * plu * dv, pv * lv + s * plu * du))
    g = np.gcd.reduce(mat)
    den = 2 * h[r] // g
    # d is in the lattice, so a kept c in it off the line through 0 and d
    # has |X(c)| a multiple of den, while |X(c)| <= h sqrt(3 / disc) on the
    # half-lens; on the line, a primitive d has no kept c
    disc = 4 * qa * qc - qb * qb
    keep = disc * den.astype(float) ** 2 <= 3.000001 * h[r].astype(float) ** 2
    keep |= np.gcd(du, dv) > 1
    r, p, den, mat = r[keep], p[keep], den[keep], mat[:, keep] // g[keep]
    # the lattice's u rows are a apart, and along them v steps by e
    a = np.gcd(np.gcd(mat[1], mat[3]), den)
    e = den // a
    # on the row u = a: n01 v = -mat[0] and n11 v = -mat[2] (mod e) for
    # n01 = mat[1] / a, n11 = mat[3] / a, so (n01 + c n11) v =
    # -(mat[0] + c mat[2]) for c the part of e prime to n01, which makes
    # the factor a unit
    n01, n11 = mat[1] // a, mat[3] // a
    c, f = e.copy(), np.gcd(e, n01)
    while (f > 1).any():
        c //= f
        f = np.gcd(c, f)
    unit, rhs = (n01 + c * n11) % e, (mat[0] + c * mat[2]) % e
    b = np.zeros(e.size, dtype=np.int64)
    t = (e > 1).nonzero()[0]
    b[t] = [-y * pow(x, -1, m) % m for x, y, m in zip(*(z[t].tolist() for z in (unit, rhs, e)))]
    cover = (den == 1).nonzero()[0]
    cover = cover[np.diff(r[cover], prepend=-1) != 0]
    rest = np.ones(r.size, dtype=bool)
    rest[cover] = False
    return ((r[rest], p[rest], p[rest] == r[rest], a[rest], b[rest], e[rest], mat[:, rest],
             den[rest]), (r[cover], p[cover], p[cover] == r[cover], mat[:, cover]))


def _within(a0, b, lo, hi):
    """The first and last step i with lo <= a0 + b i <= hi, an empty range
    when there is none."""
    flat = b == 0
    b = np.where(flat, 1, b)
    x, y = np.where(b < 0, hi, lo) - a0, np.where(b < 0, lo, hi) - a0
    first, last = -_floor_div(-x, b), _floor_div(y, b)
    if flat.any():
        inside = (lo <= a0) & (a0 <= hi)
        first[flat] = np.where(inside, -_FAR, _FAR)[flat]
        last[flat] = np.where(inside, _FAR, -_FAR)[flat]
    return first, last


def _roomy(q, rows):
    """Per row, whether its c box holds its whole lens q(c) <= h,
    q(c - d) <= h, so every kept c of the row; only a box cut by the n x n
    region may not."""
    qa, qb, qc = q
    du, dv, h, u0, u1, v0, v1 = rows
    disc = 4 * qa * qc - qb * qb
    ru, rv = np.sqrt(4 * qc * h / disc) + 1e-6, np.sqrt(4 * qa * h / disc) + 1e-6
    return ((np.maximum(du, 0) - u0 >= ru) & (u1 - np.minimum(du, 0) >= ru)
            & (np.maximum(dv, 0) - v0 >= rv) & (v1 - np.minimum(dv, 0) >= rv))


def _taken(rows, roomy, progressions, maps, m):
    """The first and last step i < num of the progressions (dj, uj, vj, e,
    num) of c (uj, vj + i e) of rows dj, lattice points of the maps m of
    `maps` (p, mirror, mat, den), that the maps take to kept c of their
    rows p: the c whose image mat c / den lies in p's c box, a test a
    `roomy` box passes, and for a mirror the c with X(c) < 0, taken to
    X(c) > 0. The image and X(c) are linear in i."""
    dj, uj, vj, e, num = progressions
    p, mirror, mat, den = maps
    lo, hi = np.zeros(uj.size, dtype=np.int64), num - 1
    t = (~roomy[p[m]]).nonzero()[0]
    if t.size:
        mt, dt, box = mat[:, m[t]], den[m[t]], rows[3:7, p[m[t]]]
        ut, vt, et = uj[t], vj[t], e[t]
        a, b = _within(_floor_div(mt[0] * ut + mt[1] * vt, dt), _floor_div(mt[1] * et, dt),
                       box[0], box[1])
        a2, b2 = _within(_floor_div(mt[2] * ut + mt[3] * vt, dt), _floor_div(mt[3] * et, dt),
                         box[2], box[3])
        lo[t], hi[t] = np.maximum(np.maximum(a, a2), 0), np.minimum(np.minimum(b, b2), hi[t])
    t = mirror[m].nonzero()[0]
    if t.size:
        du, dv = rows[0, dj[t]], rows[1, dj[t]]
        a, b = _within(du * vj[t] - dv * uj[t], du * e[t], -_FAR, -1)
        lo[t], hi[t] = np.maximum(a, lo[t]), np.minimum(b, hi[t])
    return lo, hi


def _uncovered(rows, roomy, runs, covers):
    """The runs the rows' covers leave: those of rows without one, then the
    pieces before and after the range a cover takes of each run; and the
    number of c the covers take."""
    cr, cp, mirror, mat = covers
    d, u, v, size = runs
    cover = np.full(rows.shape[1], -1)
    cover[cr] = np.arange(cr.size)
    at = cover[d]
    jc, rest = (at >= 0).nonzero()[0], (at < 0).nonzero()[0]
    mc = at[jc]
    dc, uc, vc, sc = d[jc], u[jc], v[jc], size[jc]
    uc, vc, sc = uc.astype(np.int64), vc.astype(np.int64), sc.astype(np.int64)
    lo, hi = _taken(rows, roomy, (dc, uc, vc, np.ones(jc.size, dtype=np.int64), sc),
                    (cp, mirror, mat, np.ones(cp.size, dtype=np.int64)), mc)
    taken = np.maximum(hi - lo + 1, 0)
    # a run keeps [0, lo) and (hi, size), or all of it when none is taken
    none = taken == 0
    lo[none], hi[none] = sc[none], sc[none] - 1
    first = np.stack((vc, vc + hi + 1), axis=1).ravel()
    length = np.stack((lo, sc - hi - 1), axis=1).ravel()
    keep = (length > 0).nonzero()[0]
    pieces = (np.concatenate((x[rest], y)) for x, y in zip(
        runs, (dc[keep >> 1], uc[keep >> 1], first[keep], length[keep])))
    return tuple(pieces), int(taken.sum())


def _longest_side_chunk(task: tuple) -> int:
    """Distinct shapes whose longest side is one of the task's d, whole h
    groups of them, evaluated at once.

    Every row gets one rule: its kept c, less those that a map of `_maps`
    takes to a kept c of an earlier row of its group or, by its mirror,
    from X(c) < 0 to X(c) > 0. Such a c has the shape of an earlier kept c,
    and the earliest kept c of a shape has none, so the count is the
    group's number of shapes. Only c of the set T, those some map takes to
    a lattice point, are tested: along a run they are steps off + e i, and
    those a map takes into its partner's c box a range of i (`_taken`); a c
    outside T is the earliest of its shape. A row with a map integral on every
    c, such as the square grid's axes and diagonal under their mirror or
    the triangular lattice's rows under its 60-degree rotation, has T all
    its kept c: it first drops that map's range of each run (its cover),
    and its other maps run on the rest.
    """
    q, include_degenerate, rows = task
    (r, p, mirror, a, b, e, mat, den), covers = _maps(q, rows)
    runs = _runs(q, rows, include_degenerate)
    kept = int(runs[3].sum())
    roomy = _roomy(q, rows)
    if covers[0].size:
        runs, covered = _uncovered(rows, roomy, runs, covers)
        kept -= covered
    if not r.size:
        return kept
    d, u, v, size = runs
    # each piece against each other map of its row: the lattice's c in it
    # are the steps off, off + e, ... along it, num of them
    per_row = np.bincount(r, minlength=rows.shape[1])
    nm = per_row[d]
    j = np.arange(d.size).repeat(nm)
    m = np.arange(j.size) + ((per_row.cumsum() - per_row)[d] - (nm.cumsum() - nm)).repeat(nm)
    e, a, uj = e[m], a[m], u.repeat(nm).astype(np.int64)
    quo = _floor_div(uj, a)
    off = quo * b[m] - v.repeat(nm)
    off -= _floor_div(off, e) * e
    num = _floor_div(size.repeat(nm) - 1 - off, e) + 1
    hit = ((num > 0) & (quo * a == uj)).nonzero()[0]
    j, m, e, off, num = j[hit], m[hit], e[hit], off[hit], num[hit]
    lo, hi = _taken(rows, roomy, (d[j], u[j].astype(np.int64), v[j] + off, e, num),
                    (p, mirror, mat, den), m)
    gone = np.maximum(hi - lo + 1, 0)
    kept -= int(gone.sum())
    # a c that two maps take to earlier kept c is one c: in the pieces where
    # two maps take c, each such c is marked at its place among their c
    drop = gone.nonzero()[0]
    twice = drop[np.bincount(j[drop], minlength=d.size)[j[drop]] > 1]
    if not twice.size:
        return kept
    k, e, tj = gone[twice], e[twice], j[twice]
    many = np.zeros(d.size, dtype=bool)
    many[tj] = True
    start = np.where(many, size, 0).cumsum() - size
    place = e.repeat(k) * np.arange(k.sum())
    place += (start[tj] + off[twice] + (lo[twice] - k.cumsum() + k) * e).repeat(k)
    seen = np.zeros(int(size[many].sum()), dtype=bool)
    seen[place] = True
    return kept + place.size - int(np.count_nonzero(seen))


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
    _check_exact(n, q)
    tasks = _longest_side_tasks(n, q, include_degenerate)
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
