"""Lattice shape censuses: reductions vs. brute force, determinism, series."""

import multiprocessing
from itertools import combinations

import numpy as np
import pytest

from dtl import lattice
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
    general_lattice_census,
    grid_census,
    ratio_fit,
    tri_lattice_census,
)

SQUARE = LatticeKind.square()
TRIANGULAR = LatticeKind.triangular()


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


@pytest.fixture(params=["fork", "spawn", "forkserver"])
def start_method(request):
    prev = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method(request.param, force=True)
    yield request.param
    multiprocessing.set_start_method(prev, force=True)


def test_determinism_across_workers(start_method):
    # Each input has several chunk tasks (3 for the grid, 3 per anchor for the
    # triangle, 9 for the general path), so workers > 1 starts a pool. The
    # counts are the single-process results.
    for w in (1, 2, 8):
        assert grid_census(64, workers=w).distinct == 2_933_509
        assert tri_lattice_census(64, False, workers=w).distinct == 3_651_133
        assert general_lattice_census(TRIANGULAR_GRAM, 12, workers=w).distinct == 4_070


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

    monkeypatch.setattr(lattice, "ProcessPoolExecutor", FakePool)
    return asked


def test_pool_size_capped_at_task_count(pool_sizes):
    # grid_census(64) has 3 chunk tasks; a pool asked for 6 workers would
    # start 6 processes under fork.
    assert grid_census(64, workers=6).distinct == 2_933_509
    assert pool_sizes == [3]


def test_census_reports_processes_used(pool_sizes):
    assert grid_census(64, workers=6).workers == 3
    # grid_census(5) has one chunk task, so it runs serially
    assert grid_census(5, workers=4).workers == 1
    assert general_lattice_census(TRIANGULAR_GRAM, 12, workers=2).workers == 2
    assert pool_sizes == [3, 2]


def _fixing_reflection(n, corner):
    """(anchor, sign) as the censuses pass them, and the reflection on points."""
    if corner == "origin":
        return (0, 0), 1, lambda p: (p[1], p[0])
    return (n - 1, 0), -1, lambda p: (n - 1 - p[1], n - 1 - p[0])


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("corner", ["origin", "right"])
def test_canonical_rule_keeps_one_pair_per_reflection_orbit(n, corner):
    anchor, s, reflect = _fixing_reflection(n, corner)
    pts = [(u, v) for v in range(n) for u in range(n) if (u, v) != anchor]
    du, dv, sigma = lattice._anchor_points(n, anchor, s)
    assert list(zip((du + anchor[0]).tolist(), (dv + anchor[1]).tolist())) == pts
    kept = []
    for i in range(len(pts)):
        mask = lattice._canonical_partners(sigma, i)
        if mask is not None:
            kept += [frozenset({pts[i], pts[j]}) for j in np.flatnonzero(mask) + i + 1]

    def orbit(pair):
        return frozenset({frozenset(pair), frozenset(map(reflect, pair))})

    pairs = list(combinations(pts, 2))
    kept_orbits = [orbit(p) for p in kept]
    assert len(set(kept_orbits)) == len(kept_orbits)  # at most one per orbit
    assert set(kept_orbits) == {orbit(p) for p in pairs}  # at least one
    fixed = sum(1 for p in pairs if frozenset(map(reflect, p)) == frozenset(p))
    assert 2 * len(kept) == len(pairs) + fixed


@pytest.mark.parametrize("deg", [True, False])
def test_small_chunks_match_general_path(monkeypatch, deg):
    # About 50 pairs per chunk at n = 12, so the reflection quotient meets
    # every kind of chunk boundary, including chunks whose rows keep nothing.
    monkeypatch.setattr(lattice, "_CHUNK_PAIRS", 50)
    sizes = []
    real = lattice._anchored_chunk

    def recording(task):
        keys = real(task)
        sizes.append(keys.size)
        return keys

    monkeypatch.setattr(lattice, "_anchored_chunk", recording)
    square = GramForm(1, 0, 1)
    assert grid_census(12, deg).distinct == general_lattice_census(square, 12, deg).distinct
    assert (
        tri_lattice_census(12, deg).distinct
        == general_lattice_census(TRIANGULAR_GRAM, 12, deg).distinct
    )
    assert len(sizes) == 3 * len(lattice._pair_chunk_bounds(12 * 12 - 1)) > 300
    assert 0 in sizes


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
    monkeypatch.delenv("DTL_ORACLE_LIMIT", raising=False)
    with pytest.raises(CostGuardExceeded):
        all_triples_census(9, SQUARE)
    monkeypatch.setenv("DTL_ORACLE_LIMIT", "9")
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
            ratio=round(0.18 * n**4 - 0.5 * n**3) / n**4,
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
