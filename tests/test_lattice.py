"""Lattice shape censuses: reductions vs. brute force, determinism, series."""

import concurrent.futures
import multiprocessing
import tracemalloc
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dtl import keys as packed, lattice
from dtl.errors import CostGuardExceeded, PreconditionError
from dtl.lattice import (
    BoundingBoxClass,
    GramForm,
    LatticeKind,
    TRIANGULAR_GRAM,
    all_triples_census,
    bounding_box_class,
    census,
    census_series,
    grid_census,
    ratio_fit,
    tri_lattice_census,
)
import reference
from reference import field_width, general_lattice_census, sorted_unique

SQUARE = LatticeKind.square()
TRIANGULAR = LatticeKind.triangular()


def _tasks(n, q, include_degenerate=True):
    """The longest-side census tasks of the n x n region of form q."""
    return lattice._longest_side_tasks(n, q, include_degenerate)


# Frozen oracle values (all_triples_census is the generator; see the
# origin-reduction tests below which recompute them live for small n).
GRID_WITH_DEG = {2: 1, 3: 10, 4: 33, 5: 88, 6: 185}
GRID_NO_DEG = {2: 1, 3: 8, 4: 29, 5: 79, 6: 172}
TRI_WITH_DEG = {2: 2, 3: 13, 4: 43, 5: 110, 6: 233}
TRI_NO_DEG = {2: 2, 3: 11, 4: 39, 5: 101, 6: 220}


def test_grid_known_values():
    for n, want in GRID_WITH_DEG.items():
        assert grid_census(n).distinct == want
    for n, want in GRID_NO_DEG.items():
        assert grid_census(n, include_degenerate=False).distinct == want


def test_grid_census_shapes_n3():
    # the ten shapes of the 3×3 grid, from exhaustive enumeration
    assert grid_census(3).distinct == 10


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("deg", [True, False])
def test_origin_reduction_matches_oracle(n, deg):
    assert grid_census(n, deg).distinct == all_triples_census(n, SQUARE, deg).distinct


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("deg", [True, False])
def test_two_corner_reduction_matches_oracle(n, deg):
    assert (
        tri_lattice_census(n, deg).distinct
        == all_triples_census(n, TRIANGULAR, deg).distinct
    )


def test_tri_known_values():
    for n, want in TRI_WITH_DEG.items():
        assert tri_lattice_census(n).distinct == want
    for n, want in TRI_NO_DEG.items():
        assert tri_lattice_census(n, include_degenerate=False).distinct == want


@pytest.mark.parametrize("n", [2, 3, 5, 8, 12, 24])
def test_general_special_agreement(n):
    assert (
        general_lattice_census(GramForm(1, 0, 1), n).distinct
        == grid_census(n).distinct
    )
    # both modes, so the degeneracy filter on the (1,1,1) form is checked
    # beyond the oracle's n <= 6
    for deg in (True, False):
        assert (
            general_lattice_census(GramForm(1, 1, 1), n, deg).distinct
            == tri_lattice_census(n, deg).distinct
        )


def test_general_triangular_pinned_count():
    # the pinned (1,1,1) count at n = 12; the general path runs serially
    c = general_lattice_census(TRIANGULAR_GRAM, 12)
    assert (c.distinct, c.workers) == (4_070, 1)


def test_general_rectangular_oracle():
    gram = GramForm(1, 0, 2)
    kind = LatticeKind.general(gram)
    for n in (2, 3, 4):
        assert (
            general_lattice_census(gram, n).distinct
            == all_triples_census(n, kind).distinct
        )


def test_gram_positive_definite_required():
    with pytest.raises(PreconditionError):
        GramForm(1, 3, 1)  # discriminant b² − 4ac = 5 > 0
    with pytest.raises(PreconditionError):
        GramForm(0, 0, 1)


@pytest.mark.parametrize("q", [(1, 0, 2), (2, 1, 3), (1, -1, 3), (1, 0, 3), (3, 2, 5)])
@pytest.mark.parametrize("deg", [True, False])
def test_census_matches_oracle_on_general_forms(q, deg):
    kind = LatticeKind.general(GramForm(*q))
    for n in range(2, 7):
        assert census(kind, n, deg).distinct == all_triples_census(n, kind, deg).distinct


@pytest.fixture(params=["fork", "spawn", "forkserver"])
def start_method(request):
    prev = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method(request.param, force=True)
    yield request.param
    multiprocessing.set_start_method(prev, force=True)


def test_determinism_across_workers(start_method):
    # Each input has several tasks (14 for the grid, 29 for the triangle), so
    # workers > 1 starts a pool. The counts are the single-process results.
    assert len(_tasks(64, (1, 0, 1), True)) == 14
    assert len(_tasks(64, (1, 1, 1), False)) == 29
    for w in (1, 2, 8):
        assert grid_census(64, workers=w).distinct == 2_933_509
        assert tri_lattice_census(64, False, workers=w).distinct == 3_651_133


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replaces the process pool with an in-process one; returns the list of
    the pool sizes asked for."""
    asked = []

    class FakePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    # `_run_chunks` imports the pool from concurrent.futures when it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    return asked


def test_pool_size_capped_at_task_count(pool_sizes):
    # tri_lattice_census(64) has 29 tasks; a pool asked for 32 workers would
    # start 32 processes under fork.
    assert len(_tasks(64, (1, 1, 1), False)) == 29
    assert tri_lattice_census(64, False, workers=32).distinct == 3_651_133
    assert pool_sizes == [29]


def test_census_reports_processes_used(pool_sizes):
    assert tri_lattice_census(64, workers=32).workers == 29
    # grid_census(5) has one task, so it runs serially
    assert grid_census(5, workers=4).workers == 1
    assert pool_sizes == [29]


def test_task_list_does_not_depend_on_workers(pool_sizes, monkeypatch):
    seen = []
    real = lattice._run_chunks

    def recording(tasks, workers):
        seen.append(list(tasks))
        return real(tasks, workers)

    monkeypatch.setattr(lattice, "_run_chunks", recording)
    for w in (1, 2, 32):
        assert tri_lattice_census(64, workers=w).workers == min(w, 29)
    seen = [[(*t[:2], t[2].tolist()) for t in tasks] for tasks in seen]
    assert len(seen[0]) == 29 and seen[0] == seen[1] == seen[2]
    assert pool_sizes == [2, 29]


# The four shapes of the group G of signed coordinate permutations that keep a
# form: all 8; +-I and +-swap; +-I and the sign changes of one coordinate; +-I.
G_ORDERS = {(1, 0, 1): 8, (1, 1, 1): 4, (1, 0, 2): 4, (2, 1, 3): 2}


def _q(q, u, v):
    return q[0] * u * u + q[1] * u * v + q[2] * v * v


def _symmetries(q, n):
    """The signed permutations that keep q on the (2n-1)^2 difference box."""
    maps = [
        lambda u, v, s=s, t=t: (s * u, t * v) for s in (1, -1) for t in (1, -1)
    ] + [lambda u, v, s=s, t=t: (s * v, t * u) for s in (1, -1) for t in (1, -1)]
    box = [(u, v) for u in range(1 - n, n) for v in range(1 - n, n)]
    return [g for g in maps if all(_q(q, *g(*p)) == _q(q, *p) for p in box)]


def _run_keys(q, width, rows, include_degenerate=True):
    """The keys q(c) * 2**width + q(c - d) of the c of the kernel's runs, in
    `_runs` order, and each row's key count. As q(c - d) = q(c) - L(c) + h,
    a key is quadratic in v along a run."""
    qa, qb, qc = q
    d, u, v, size = (x.astype(np.int64) for x in lattice._runs(q, rows, include_degenerate))
    du, dv, h = rows[:3, d]
    m = (1 << width) + 1
    b = m * qb * u - (qb * du + 2 * qc * dv)
    c = (m * qa * u - (2 * qa * du + qb * dv)) * u + h
    cv = np.repeat(v - (np.cumsum(size) - size), size) + np.arange(size.sum())
    keys = (m * qc * cv + np.repeat(b, size)) * cv + np.repeat(c, size)
    return keys, np.bincount(d, weights=size, minlength=rows.shape[1]).astype(np.int64)


def _kernel_keys(q, width, side, include_degenerate=True):
    """The keys of the kept c of one `_longest_sides` row, in cell order,
    each re-packed with the row's h as a third field: (q(c), q(c - d), h)."""
    keys, _ = _run_keys(q, width, np.array(side, dtype=np.int64)[:, None], include_degenerate)
    return [(k << width) | side[2] for k in keys.tolist()]


def _box_shapes(q, side, include_degenerate):
    """(q(c), q(c - d)) of the kept c of one `_longest_sides` row, evaluated
    over its whole c box with plain numpy, in row-major order."""
    du, dv, h, u0, u1, v0, v1 = side
    cu, cv = np.meshgrid(np.arange(u0, u1 + 1), np.arange(v0, v1 + 1), indexing="ij")
    qc, qcd = _q(q, cu, cv), _q(q, cu - du, cv - dv)
    keep = (0 < qc) & (qc <= qcd) & (qcd <= h)
    if not include_degenerate:
        keep &= dv * cu != du * cv
    return qc[keep], qcd[keep]


@pytest.mark.parametrize("q", [(1, 0, 1), (1, 1, 1), (2, 1, 3), (1, -1, 3)])
@pytest.mark.parametrize("deg", [True, False])
def test_runs_have_exact_ends_at_the_widest_fields(q, deg):
    # The largest h at n = 300 give the longest runs and the largest roots.
    n = 300
    width = field_width(n, *q)
    rows = lattice._longest_sides(n, q)[:, -50:]
    out, sizes = _run_keys(q, width, rows, deg)
    keys = np.split(out[: sizes.sum()], np.cumsum(sizes)[:-1])
    for side, got in zip(rows.T.tolist(), keys):
        qc, qcd = _box_shapes(q, side, deg)
        assert got.tolist() == ((qc << width) | qcd).tolist()


@pytest.mark.parametrize("q", [(1, 0, 1), (1, 1, 1), (2, 1, 3), (1, -1, 3)])
@pytest.mark.parametrize("deg", [True, False])
def test_taken_ranges_are_exact_at_the_widest_fields(q, deg):
    # At n = 300, h < 2**21 as `_check_exact` allows, the numerators
    # mat c of rho reach 2**34 and mat e 2**45: int64 in the kernel, divided
    # in floats. The image is linear in the step, so the range `_taken`
    # gives is exact iff its ends are in the partner's box (and, for a
    # mirror, have X(c) < 0) and the steps just outside are not: checked
    # here with Python ints. The largest h have the boxes the region cuts,
    # the ones the kernel tests.
    n = 300
    rows = lattice._longest_sides(n, q)[:, -150:]
    maps, covers = lattice._maps(q, rows)
    one = np.ones(covers[0].size, dtype=np.int64)
    r, p, mirror, a, b, e, n4, den = (np.concatenate(x, axis=-1) for x in zip(
        maps, (*covers[:3], one, 0 * one, one, covers[3], one)))
    of_row = {}
    for m, row in enumerate(r.tolist()):
        of_row.setdefault(row, []).append((m, int(a[m]), int(b[m]), int(e[m])))
    pairs = []
    for row, u, v, size in zip(*(x.tolist() for x in lattice._runs(q, rows, deg))):
        for m, am, bm, em in of_row.get(row, []):
            off = (u // am * bm - v) % em
            if u % am == 0 and off < size:
                pairs.append((row, u, v + off, (size - 1 - off) // em + 1, m))
    assert len(pairs) > 300
    row, u, v, num, m = (np.array(x, dtype=np.int64) for x in zip(*pairs))
    roomy = lattice._roomy(q, rows)
    assert np.count_nonzero(~roomy[p[m]]) > 300
    lo, hi = lattice._taken(rows, roomy, (row, u, v, e[m], num), (p, mirror, n4, den), m)
    sides = rows.T.tolist()
    taken = 0
    for (row, u, v, num, m), first, last in zip(pairs, lo.tolist(), hi.tolist()):
        step, (n00, n01, n10, n11), dd = int(e[m]), n4[:, m].tolist(), int(den[m])
        du, dv, *_ = sides[row]
        u0, u1, v0, v1 = sides[int(p[m])][3:]

        def inside(i):
            cv = v + i * step
            x, y = n00 * u + n01 * cv, n10 * u + n11 * cv
            assert x % dd == y % dd == 0
            in_box = u0 <= x // dd <= u1 and v0 <= y // dd <= v1
            return in_box and (not mirror[m] or du * cv - dv * u < 0)

        if first <= last:
            taken += 1
            assert inside(first) and inside(last)
            assert first == 0 or not inside(first - 1)
            assert last == num - 1 or not inside(last + 1)
        else:
            assert not any(inside(i) for i in range(num))
    assert taken > 20


@pytest.mark.parametrize(
    "q, n", [((5000, 1, 5000), 12), ((3, -2, 700), 12), ((9000, 8999, 9000), 8)]
)
def test_census_matches_general_path_on_wide_forms(q, n):
    # coefficients near the exactness guard at small n
    gram = GramForm(*q)
    for deg in (True, False):
        got = census(LatticeKind.general(gram), n, deg).distinct
        assert got == general_lattice_census(gram, n, deg).distinct


@st.composite
def _forms(draw):
    a, c = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    b = draw(st.integers(-6, 6).filter(lambda b: b * b < 4 * a * c))
    return a, b, c


@given(_forms(), st.integers(2, 6), st.booleans())
@settings(max_examples=40, deadline=None)
def test_census_matches_oracle_on_random_forms(q, n, deg):
    kind = LatticeKind.general(GramForm(*q))
    assert census(kind, n, deg).distinct == all_triples_census(n, kind, deg).distinct


def test_wide_fields_take_int64_keys():
    # At n = 200 two fields of (q(c), q(c - d)) take 2w = 34 bits, past 32;
    # the task that holds h = 53,248 counts the shapes of a plain c-box scan.
    n, q = 200, (1, 0, 1)
    assert 2 * field_width(n, *q) == 34
    (task,) = [t for t in _tasks(n, q) if 53_248 in t[2][2]]
    shapes = set()
    for side in task[2].T.tolist():
        qc, qcd = _box_shapes(q, side, True)
        shapes.update(zip([side[2]] * qc.size, qc.tolist(), qcd.tolist()))
    assert lattice._longest_side_chunk(task) == len(shapes)


@pytest.mark.parametrize("q", list(G_ORDERS))
def test_orbit_rule_keeps_the_largest_d_of_each_orbit(q):
    for n in (2, 5, 8):
        group = _symmetries(q, n)
        assert len(group) == G_ORDERS[q]
        du, dv, h = (a.tolist() for a in lattice._longest_sides(n, q)[:3])
        orbits = {
            frozenset(g(u, v) for g in group)
            for u in range(1 - n, n) for v in range(1 - n, n) if (u, v) != (0, 0)
        }
        # one d per orbit, its largest in row-major (tuple) order
        assert sorted(zip(du, dv)) == sorted(max(o) for o in orbits)
        assert h == [_q(q, u, v) for u, v in zip(du, dv)] == sorted(h)


@pytest.mark.parametrize("q", [*G_ORDERS, (1, -1, 3)])
def test_half_rule_keeps_one_c_per_swap_pair(q):
    for n in (2, 4, 6):
        width = field_width(n, *q)
        mask = (1 << width) - 1
        shapes = set()
        for du, dv, h, *box in zip(*(a.tolist() for a in lattice._longest_sides(n, q))):
            keys = _kernel_keys(q, width, (du, dv, h, *box))
            got = sorted(((k >> 2 * width) & mask, (k >> width) & mask, k & mask) for k in keys)
            want = sorted(
                (_q(q, cu, cv), _q(q, cu - du, cv - dv), h)
                for cu in range(max(du, 0) - (n - 1), min(du, 0) + n)
                for cv in range(max(dv, 0) - (n - 1), min(dv, 0) + n)
                if 0 < _q(q, cu, cv) <= _q(q, cu - du, cv - dv) <= h
            )
            assert got == want
            shapes.update(got)
        pts = [(u, v) for u in range(n) for v in range(n)]
        assert shapes == {
            tuple(sorted((_q(q, a[0] - b[0], a[1] - b[1]), _q(q, a[0] - c[0], a[1] - c[1]),
                          _q(q, b[0] - c[0], b[1] - c[1]))))
            for a, b, c in combinations(pts, 3)
        }


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("corner", ["origin", "right"])
def test_canonical_rule_keeps_one_pair_per_reflection_orbit(n, corner):
    # Every triangle PQR with P at a corner of the n x n region and PQ a
    # longest side is the pair (d, c) = (Q - P, R - P). Its orbit under G and
    # the P <-> Q swap with -I, (d, c) -> (d, d - c), holds the congruent pairs
    # that keep d as the side. The kernel scans the members whose d passes the
    # orbit rule and whose c passes the half rule: there must be at least one,
    # all with the same d and the triangle's key, inside that d's c box and
    # among the kernel's own keys for it.
    p = (0, 0) if corner == "origin" else (n - 1, 0)
    pts = [(u, v) for u in range(n) for v in range(n) if (u, v) != p]
    for q in G_ORDERS:
        group = _symmetries(q, n)
        width = field_width(n, *q)
        mask = (1 << width) - 1
        sides = {
            (du, dv): side
            for du, dv, *side in zip(*(a.tolist() for a in lattice._longest_sides(n, q)))
        }
        side_keys = {}
        for a, b in permutations(pts, 2):
            d, c = (a[0] - p[0], a[1] - p[1]), (b[0] - p[0], b[1] - p[1])
            h, qc, qcd = _q(q, *d), _q(q, *c), _q(q, c[0] - d[0], c[1] - d[1])
            if max(qc, qcd) > h:
                continue
            orbit = set()
            for g in group:
                e, f = g(*d), g(*c)
                orbit |= {(e, f), (e, (e[0] - f[0], e[1] - f[1]))}
            scanned = [
                (e, f) for e, f in orbit
                if e in sides and 0 < _q(q, *f) <= _q(q, f[0] - e[0], f[1] - e[1])
            ]
            assert len({e for e, _ in scanned}) == 1
            e = scanned[0][0]
            h, u0, u1, v0, v1 = sides[e]
            if e not in side_keys:
                keys = _kernel_keys(q, width, (*e, h, u0, u1, v0, v1))
                side_keys[e] = {((k >> 2 * width) & mask, (k >> width) & mask, k & mask) for k in keys}
            shape = tuple(sorted((qc, qcd, h)))
            for _, f in scanned:
                assert (_q(q, *f), _q(q, f[0] - e[0], f[1] - e[1]), h) == shape
                assert u0 <= f[0] <= u1 and v0 <= f[1] <= v1
            assert shape in side_keys[e]


@pytest.mark.parametrize("floor", [0, 50, 10**7])
def test_union_merges_to_the_sorted_distinct_keys(monkeypatch, floor):
    # floor 0 merges after every array, 50 now and then, 10**7 only at the end
    monkeypatch.setattr(reference, "_MERGE_KEYS", floor)
    rng = np.random.default_rng(0)
    arrays = [rng.integers(0, 300, size=s, dtype=np.int64) for s in (0, 7, 40, 1, 200, 3, 90)]
    want = np.unique(np.concatenate(arrays))
    assert np.array_equal(sorted_unique(a.copy() for a in arrays), want)


def test_key_width_refuses_fields_past_21_bits():
    # three 21-bit fields fill 63 bits of an int64; a 22-bit field overflows
    assert packed.key_width(2**21 - 1) == 21
    with pytest.raises(CostGuardExceeded, match="overflow the packed key"):
        packed.key_width(2**21)


@pytest.mark.parametrize("deg", [True, False])
def test_small_chunks_match_general_path(monkeypatch, deg):
    # A zero budget makes every h group its own task.
    monkeypatch.setattr(lattice, "_TASK_ROWS", 0)
    for q in G_ORDERS:
        h = lattice._longest_sides(12, q)[2]
        assert len(_tasks(12, q, deg)) == len(set(h.tolist()))
        gram = GramForm(*q)
        assert (
            census(LatticeKind.general(gram), 12, deg).distinct
            == general_lattice_census(gram, 12, deg).distinct
        )


@pytest.mark.parametrize(
    "n, q, budget", [(128, (1, 0, 1), None), (100, (1, 1, 1), None), (40, (2, 1, 3), 1000)]
)
def test_no_h_group_split_across_tasks(monkeypatch, n, q, budget):
    if budget is not None:
        monkeypatch.setattr(lattice, "_TASK_ROWS", budget)
    rows = lattice._longest_sides(n, q)
    tasks = _tasks(n, q, True)
    assert len(tasks) >= 2
    # the tasks hold the rows in order, each row once
    assert np.array_equal(np.hstack([t[2] for t in tasks]), rows)
    h = [t[2][2].tolist() for t in tasks]
    assert all(a[-1] < b[0] for a, b in zip(h, h[1:]))


@pytest.mark.parametrize("q", [*G_ORDERS, (1, -1, 3)])
def test_collinear_mask_drops_exactly_the_zero_area_keys(q):
    for n in range(2, 9):
        width = field_width(n, *q)
        mask = (1 << width) - 1
        for side in zip(*(a.tolist() for a in lattice._longest_sides(n, q))):
            # 16 area^2 = 4ab - (c - a - b)^2 for squared sides a, b, c
            want = [
                k for k in _kernel_keys(q, width, side)
                if 4 * (k >> 2 * width) * ((k >> width) & mask)
                != ((k & mask) - (k >> 2 * width) - ((k >> width) & mask)) ** 2
            ]
            assert _kernel_keys(q, width, side, False) == want


@pytest.mark.parametrize("deg", [True, False])
def test_task_count_is_its_distinct_keys(monkeypatch, deg):
    # A zero budget gives one task per h group, some of them with no keys.
    monkeypatch.setattr(lattice, "_TASK_ROWS", 0)
    empty = 0
    for q in [*G_ORDERS, (1, -1, 3)]:
        counts = []
        width = field_width(8, *q)
        for task in _tasks(8, q, deg):
            keys = [k for side in task[2].T.tolist() for k in _kernel_keys(q, width, side, deg)]
            unique = sorted_unique([np.array(keys, dtype=np.int64)])
            assert lattice._longest_side_chunk(task) == unique.size == len(set(keys))
            counts.append(len(set(keys)))
        empty += counts.count(0)
        assert sum(counts) == all_triples_census(8, LatticeKind.general(GramForm(*q)), deg).distinct
    assert empty > 0


@pytest.mark.parametrize("q", [*G_ORDERS, (1, -1, 3), (1, 0, 3)])
@pytest.mark.parametrize("deg", [True, False])
def test_mirror_count_is_each_rows_distinct_keys(q, deg):
    # Any one row counted as a group of its own, so by its mirror alone,
    # lone or not, has as many shapes as its distinct keys: its kept c less
    # those the mirror takes from X(c) < 0 to a kept c with X(c) > 0.
    paired = 0
    for n in range(2, 11):
        for side in lattice._longest_sides(n, q).T.tolist():
            qc, qcd = _box_shapes(q, side, deg)
            row = np.array(side, dtype=np.int64)[:, None]
            got = lattice._longest_side_chunk((q, deg, row))
            assert got == len(set(zip(qc.tolist(), qcd.tolist()))), (n, side)
            paired += qc.size - got
    assert paired > 0


def _kept(q, side, deg):
    """The kept c of one `_longest_sides` row, from a plain scan of its c box."""
    du, dv, h, u0, u1, v0, v1 = side
    cu, cv = np.meshgrid(np.arange(u0, u1 + 1), np.arange(v0, v1 + 1), indexing="ij")
    qc, qcd = _q(q, cu, cv), _q(q, cu - du, cv - dv)
    keep = (0 < qc) & (qc <= qcd) & (qcd <= h) & (deg | (dv * cu != du * cv))
    return set(zip(cu[keep].tolist(), cv[keep].tolist()))


@pytest.mark.parametrize("q", [*G_ORDERS, (1, -1, 3), (1, 0, 3)])
@pytest.mark.parametrize("deg", [True, False])
def test_group_count_is_its_distinct_keys(monkeypatch, q, deg):
    # One task per h group. A kept c counts unless a map of `_maps` takes it
    # (c in the map's lattice, or any c for a cover) to a kept c of its
    # partner row, which must be earlier, or, for a mirror, from X(c) < 0.
    # Checked in plain Python: the counted c hold pairwise different keys,
    # every shape of the group is counted, and the kernel gives that count.
    monkeypatch.setattr(lattice, "_TASK_ROWS", 0)
    across = 0
    for n in range(2, 11):
        for task in _tasks(n, q, deg):
            rows = task[2]
            sides = rows.T.tolist()
            kept = [_kept(q, side, deg) for side in sides]
            maps, covers = lattice._maps(q, rows)
            lattices = [[] for _ in sides]
            columns = (x.tolist() for x in (*maps[:6], maps[6].T, maps[7]))
            for r, p, mirror, a, b, e, n4, den in zip(*columns):
                lattices[r].append((p, mirror, a, b, e, n4, den))
            for r, p, mirror, n4 in zip(*(x.tolist() for x in (*covers[:3], covers[3].T))):
                lattices[r].append((p, mirror, 1, 0, 1, n4, 1))
            counted = []
            for r, (du, dv, h, *_) in enumerate(sides):
                for cu, cv in kept[r]:
                    taken = False
                    for p, mirror, a, b, e, (n00, n01, n10, n11), den in lattices[r]:
                        assert p <= r and mirror == (p == r)
                        if cu % a or (cv - cu // a * b) % e:
                            continue
                        image = (n00 * cu + n01 * cv, n10 * cu + n11 * cv)
                        assert image[0] % den == image[1] % den == 0
                        image = (image[0] // den, image[1] // den)
                        if image in kept[p] and (not mirror or du * cv - dv * cu < 0):
                            taken = True
                            across += p != r
                    if not taken:
                        counted.append((h, _q(q, cu, cv), _q(q, cu - du, cv - dv)))
            keys = {(h, _q(q, cu, cv), _q(q, cu - du, cv - dv))
                    for (du, dv, h, *_), c in zip(sides, kept) for cu, cv in c}
            assert len(counted) == len(set(counted)) == len(keys)
            assert lattice._longest_side_chunk(task) == len(keys)
    assert across > 0


def _box_sizes(task):
    """The c-box u rows and cells of a task."""
    boxes = [(u1 - u0 + 1, v1 - v0 + 1) for *_, u0, u1, v0, v1 in task[2].T.tolist()]
    return sum(u for u, _ in boxes), sum(u * v for u, v in boxes)


def _traced_peak(task):
    tracemalloc.start()
    try:
        lattice._longest_side_chunk(task)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_guard_refuses_before_any_task_runs(monkeypatch):
    ran = []
    real = lattice._longest_side_chunk
    monkeypatch.setattr(lattice, "_longest_side_chunk", lambda task: ran.append(task) or real(task))
    tasks = _tasks(64, (1, 1, 1), False)
    # the charge of a task: bytes per c-box u row and per c-box cell
    charges = [lattice._ROW_BYTES * urows + lattice._CELL_BYTES * cells
               for urows, cells in map(_box_sizes, tasks)]
    assert charges == [lattice._task_bytes(t) for t in tasks]
    one = max(charges)
    # one process fits the budget, two do not
    monkeypatch.setattr(lattice, "_MEMORY_BUDGET", one)
    with pytest.raises(CostGuardExceeded, match="pool of 2"):
        tri_lattice_census(64, False, workers=2)
    assert ran == []
    monkeypatch.setattr(lattice, "_MEMORY_BUDGET", one - 1)
    with pytest.raises(CostGuardExceeded, match="pool of 1"):
        tri_lattice_census(64, False)
    assert ran == []
    monkeypatch.setattr(lattice, "_MEMORY_BUDGET", one)
    assert tri_lattice_census(64, False).distinct == 3_651_133
    assert len(ran) == len(tasks)


def test_key_buffer_holds_exactly_the_kept_keys():
    # For every task, the runs hold as many c as the kept c counted over the
    # whole c boxes with plain numpy, fewer than its c-box cells, and the
    # task's traced peak stays within its charge.
    q = (1, 1, 1)
    width = field_width(64, *q)
    for task in _tasks(64, q, False):
        _, deg, rows = task
        keys, counts = _run_keys(q, width, rows, deg)
        kept = sum(_box_shapes(q, side, deg)[0].size for side in rows.T.tolist())
        assert keys.size == counts.sum() == kept < _box_sizes(task)[1]
        assert _traced_peak(task) <= lattice._task_bytes(task)


@pytest.mark.parametrize("n, q, deg", [
    (128, (1, 0, 1), True), (300, (1, 0, 1), True), (100, (1, 1, 1), False),
    (80, (1, 0, 3), True), (60, (2, 1, 3), False),
])
def test_task_peak_stays_within_its_charge(n, q, deg):
    # The three tasks with the most c-box u rows and the three with the most
    # c-box cells each hold at most their charge under tracemalloc.
    tasks = _tasks(n, q, deg)
    sizes = [_box_sizes(t) for t in tasks]
    largest = {i for k in (0, 1) for i in sorted(range(len(tasks)), key=lambda i: sizes[i][k])[-3:]}
    assert len(largest) >= 3
    for i in largest:
        assert _traced_peak(tasks[i]) <= lattice._task_bytes(tasks[i])


def test_longest_sides_tests_one_orbit_image_at_a_time():
    # the orbit images held at once, 16 int64 arrays of (2n - 1)^2 entries,
    # took 10.5 MB at n = 128
    tracemalloc.start()
    try:
        lattice._longest_sides(128, (1, 0, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 << 20


def test_census_dispatch():
    gram = GramForm(1, 0, 2)
    cases = [
        (SQUARE, grid_census(5)),
        (TRIANGULAR, tri_lattice_census(5)),
        (LatticeKind.general(gram), general_lattice_census(gram, 5)),
    ]
    for kind, named in cases:
        c = census(kind, 5)
        assert (c.kind, c.distinct) == (named.kind, named.distinct)
        with pytest.raises(PreconditionError):
            census(kind, 1)


def test_monotone_in_n():
    prev = 0
    for n in range(2, 10):
        cur = grid_census(n).distinct
        assert cur > prev
        prev = cur


def test_census_fields_and_ratio():
    c = grid_census(3)
    assert c.kind == "square"
    assert c.n == 3
    assert c.include_degenerate is True
    assert c.ratio == pytest.approx(10 / 81)
    assert c.elapsed_ms >= 0


def test_census_rejects_small_n():
    with pytest.raises(PreconditionError):
        grid_census(1)


def test_oracle_limit_guard(monkeypatch):
    with pytest.raises(CostGuardExceeded):
        all_triples_census(9, SQUARE)
    monkeypatch.setattr(lattice, "ORACLE_LIMIT", 9)
    assert all_triples_census(9, SQUARE).distinct == grid_census(9).distinct


def test_series_rows():
    rows = census_series(SQUARE, [2, 3])
    assert [(r.n, r.distinct) for r in rows] == [(2, 1), (3, 10)]
    assert rows[0].ratio == pytest.approx(0.0625)
    assert rows[1].ratio == pytest.approx(10 / 81)


def test_ratio_fit_recovers_planted_coefficients():
    # synthetic rows with distinct = round(0.18 n⁴ − 0.5 n³)
    import dataclasses

    rows = census_series(SQUARE, [2, 3])
    fake = [
        dataclasses.replace(
            rows[0], n=n, distinct=round(0.18 * n**4 - 0.5 * n**3),
        )
        for n in (20, 30, 40, 50)
    ]
    fit = ratio_fit(fake)
    assert fit.c == pytest.approx(0.18, abs=1e-3)
    assert fit.d == pytest.approx(-0.5, abs=0.1)


def test_bounding_box_class():
    # (1,1) is interior to the box spanned by O and (3,2)
    assert bounding_box_class((3, 2), (1, 1)) is BoundingBoxClass.TWO_ON_BOX
    # each vertex touches a side: O at the corner, (3,1) on x=3, (1,2) on y=2
    assert bounding_box_class((3, 1), (1, 2)) is BoundingBoxClass.THREE_ON_BOX
