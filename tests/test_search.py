"""Regular n-gon triangle counts and branch-and-bound subset search."""

import math
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from dtl.errors import CostGuardExceeded, PreconditionError
from dtl.search import (
    grid_ground_set,
    ground_set_from_floats,
    make_ngon_ground_set,
    max_subset_with_k_shapes,
    ngon_asymptotic_check,
    ngon_distinct_triangles,
    verify_subset,
)


def test_ngon_counts():
    assert [ngon_distinct_triangles(n) for n in range(3, 8)] == [1, 1, 2, 3, 4]
    assert ngon_distinct_triangles(12) == 12


def test_ngon_partition_formula():
    # count equals the nearest integer to n²/12
    for n in range(3, 501):
        assert ngon_distinct_triangles(n) == round(n * n / 12)


def test_ngon_rejects_small():
    with pytest.raises(PreconditionError):
        ngon_distinct_triangles(2)


def test_ngon_asymptotic():
    rows = ngon_asymptotic_check([120])
    (n, count, ratio), = rows
    assert n == 120 and count == 1200
    assert ratio == pytest.approx(1 / 12, abs=1e-3)


def float_ngon(n):
    pts = [
        (math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n))
        for k in range(n)
    ]
    return ground_set_from_floats(pts, 1e-9)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8, 10, 12])
def test_exact_float_agreement(n):
    exact = make_ngon_ground_set(n)
    approx = float_ngon(n)
    assert exact.mode != "float"
    assert (
        len(exact.distinct_shapes(range(n)))
        == len(approx.distinct_shapes(range(n)))
        == ngon_distinct_triangles(n)
    )


def test_float_values_straddling_a_grid_edge_share_a_rank():
    # |OP|^2 and |OR|^2 differ by 2e-12 after dividing by the squared diameter
    # |PR|^2. A rounding grid of width tol would split them at (k + 1/2) * tol.
    pts = [(0.0, 0.0), (0.1, 0.0), (0.0, math.sqrt(0.01 + 4e-14))]
    raw = [(p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 for p, q in combinations(pts, 2)]
    n1, n2 = raw[0] / raw[2], raw[1] / raw[2]
    assert 1.5e-12 < n2 - n1 < 2.5e-12
    tol = (n1 + n2) / 2 / (500_000_000 + 0.5)
    assert round(n1 / tol) + 1 == round(n2 / tol)
    ground = ground_set_from_floats(pts, tol)
    assert ground.sq_distance(0, 1) == ground.sq_distance(0, 2) == raw[0]
    assert ground.shape_key(0, 1, 2) == (0, 0, 1)


def test_float_chain_within_tolerance_is_one_rank():
    # |O P_i|^2 = 1 + i * tol / 2: each within tol of the next, 4 * tol end to end.
    tol = 1e-6
    pts = [(0.0, 0.0)] + [(math.sqrt(1 + i * tol / 2), 0.0) for i in range(9)]
    ground = ground_set_from_floats(pts, tol)
    assert {ground.sq_distance(0, i) for i in range(1, 10)} == {pts[1][0] ** 2}
    exact = ground_set_from_floats(pts, 0)
    assert len({exact.sq_distance(0, i) for i in range(1, 10)}) == 9


def test_twelve_gon_alternating_hexagon():
    ground = make_ngon_ground_set(12)
    result = max_subset_with_k_shapes(ground, 3)
    assert result.max_size == 6
    assert (0, 2, 4, 6, 8, 10) in result.witnesses
    assert (1, 3, 5, 7, 9, 11) in result.witnesses
    for w in result.witnesses:
        assert verify_subset(ground, w, 3)


def test_twelve_gon_no_seven_point_subset():
    ground = make_ngon_ground_set(12)
    assert all(
        not verify_subset(ground, s, 3) for s in combinations(range(12), 7)
    )


def test_ten_gon_pentagon_optimum():
    result = max_subset_with_k_shapes(make_ngon_ground_set(10), 2)
    assert result.max_size == 5
    assert (0, 2, 4, 6, 8) in result.witnesses


def test_grid_square_optimum():
    result = max_subset_with_k_shapes(grid_ground_set(2), 1)
    assert result.max_size == 4


def test_verify_subset_trivial():
    ground = make_ngon_ground_set(6)
    assert verify_subset(ground, [], 1)
    assert verify_subset(ground, [0, 1], 1)  # no triples
    assert not verify_subset(ground, range(6), 2)


def test_ground_set_limit():
    with pytest.raises(CostGuardExceeded):
        max_subset_with_k_shapes(grid_ground_set(9), 3)


def brute_max(ground, k):
    for size in range(ground.size, 0, -1):
        for s in combinations(range(ground.size), size):
            if len(ground.distinct_shapes(s)) <= k:
                return size
    return 0


@pytest.mark.parametrize("n,k", [(5, 1), (6, 2), (8, 2), (10, 3)])
def test_search_matches_brute_force_ngon(n, k):
    ground = make_ngon_ground_set(n)
    assert max_subset_with_k_shapes(ground, k).max_size == brute_max(ground, k)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_search_matches_brute_force_grid(k):
    ground = grid_ground_set(3)
    assert max_subset_with_k_shapes(ground, k).max_size == brute_max(ground, k)


def test_witnesses_are_maximal():
    ground = make_ngon_ground_set(8)
    result = max_subset_with_k_shapes(ground, 2)
    for w in result.witnesses:
        rest = set(range(8)) - set(w)
        for extra in rest:
            assert not verify_subset(ground, list(w) + [extra], 2)


def test_size_cap():
    ground = make_ngon_ground_set(12)
    result = max_subset_with_k_shapes(ground, 3, size_cap=4)
    assert result.max_size == 4


@given(st.integers(min_value=3, max_value=30))
@settings(max_examples=30, deadline=None)
def test_monotone_in_k(n):
    ground = make_ngon_ground_set(min(n, 12))
    sizes = [
        max_subset_with_k_shapes(ground, k).max_size for k in (1, 2, 3)
    ]
    assert sizes == sorted(sizes)
