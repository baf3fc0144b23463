"""Triangle shapes, ground sets, and distinct-triangle counting."""

import random
import tracemalloc
from fractions import Fraction as F
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dtl.errors import CostGuardExceeded, DiscriminantMismatch, PreconditionError
from dtl.geometry import (
    GroundSet,
    QPoint,
    _integer_pairs,
    _zero_area,
    ground_set_from_floats,
    ground_set_from_matrix,
    ground_set_from_points,
    sq_dist,
)
from dtl.qscalar import QScalar, _coerce
from dtl.search import make_ngon_ground_set
from reference import TriangleShape, distinct_triangle_count, is_degenerate, shape_of

O = QPoint(0, 0)
HALF = QScalar(F(1, 2))
S3H = QScalar(0, F(1, 2), 3)  # √3/2

HEXAGON = [
    QPoint(1, 0),
    QPoint(HALF, S3H),
    QPoint(-HALF, S3H),
    QPoint(-1, 0),
    QPoint(-HALF, -S3H),
    QPoint(HALF, -S3H),
]

UNIT_SQUARE = [O, QPoint(1, 0), QPoint(0, 1), QPoint(1, 1)]


def test_shape_sorted_sides():
    s = shape_of(O, QPoint(3, 0), QPoint(0, 4))
    assert (s.s1, s.s2, s.s3) == (QScalar(9), QScalar(16), QScalar(25))
    assert not is_degenerate(s)


def test_sorted_sides_triple_limit(monkeypatch):
    # C(392, 3) = 9,962,680 triples are keyed; C(393, 3) = 10,039,316 are
    # refused before any triple is keyed
    monkeypatch.setattr("dtl.geometry.rank_keys", lambda rank, width: np.empty(0, np.int64))
    assert GroundSet("big", "float", 392, (), ()).sorted_sides() == []
    with pytest.raises(CostGuardExceeded, match="393 points span 10039316 triples"):
        GroundSet("big", "float", 393, (), ()).sorted_sides()


def test_shape_permutation_invariant():
    pts = [O, QPoint(2, 1), QPoint(1, 3)]
    a, b, c = pts
    base = shape_of(a, b, c)
    for p, q, r in [(a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)]:
        assert shape_of(p, q, r) == base


def test_shape_translation_invariant():
    d = QPoint(QScalar(F(7, 3)), QScalar(0, 1, 3))
    assert shape_of(O + d, QPoint(2, 1) + d, QPoint(1, 3) + d) == shape_of(
        O, QPoint(2, 1), QPoint(1, 3)
    )


def test_degenerate_detection():
    assert is_degenerate(shape_of(O, QPoint(1, 1), QPoint(3, 3)))
    assert not is_degenerate(shape_of(O, QPoint(1, 0), QPoint(0, 1)))
    # dual computation: 16·area² must vanish exactly for collinear triples
    s = shape_of(O, QPoint(2, 4), QPoint(5, 10))
    assert s.sixteen_area_sq() == QScalar(0)


def test_sixteen_area_sq_matches_heron():
    s = shape_of(O, QPoint(3, 0), QPoint(0, 4))
    # right triangle legs 3,4: area 6, so 16·area² = 576
    assert s.sixteen_area_sq() == QScalar(576)


def test_triangle_shape_rejects_nonpositive():
    with pytest.raises(PreconditionError):
        TriangleShape(QScalar(0), QScalar(1), QScalar(1))


def test_unit_square_one_triangle():
    count, shapes = distinct_triangle_count(UNIT_SQUARE)
    assert count == 1
    assert shapes == [shape_of(O, QPoint(1, 0), QPoint(1, 1))]


def test_hexagon_three_triangles():
    count, shapes = distinct_triangle_count(HEXAGON)
    assert count == 3
    sides = [(s.s1, s.s2, s.s3) for s in shapes]
    assert (QScalar(3), QScalar(3), QScalar(3)) in sides  # equilateral of diagonals


def test_degenerate_flag():
    pts = [O, QPoint(1, 0), QPoint(2, 0), QPoint(0, 1)]
    with_deg, _ = distinct_triangle_count(pts, include_degenerate=True)
    without, _ = distinct_triangle_count(pts, include_degenerate=False)
    assert with_deg == without + 1


coords = st.integers(min_value=-6, max_value=6)
points = st.builds(QPoint, coords, coords)


@given(points, points, points)
def test_shape_reflection_invariant(a, b, c):
    assume(a != b and b != c and a != c)

    def flip(p):
        return QPoint(p.x, QScalar(0) - p.y)

    assert shape_of(flip(a), flip(b), flip(c)) == shape_of(a, b, c)


@given(points, points, points)
def test_degeneracy_iff_zero_area(a, b, c):
    assume(a != b and b != c and a != c)
    s = shape_of(a, b, c)
    # cross-product area computed independently of the side-length form
    ax, ay = a.x, a.y
    cross = (b.x - ax) * (c.y - ay) - (b.y - ay) * (c.x - ax)
    assert is_degenerate(s) == (cross == QScalar(0))


@given(points, points)
def test_sq_dist_symmetric(p, q):
    assert sq_dist(p, q) == sq_dist(q, p)


# Q(sqrt 3) points: triangular-lattice points u*(1, 0) + v*(1/2, sqrt3/2), which
# give many collinear triples and repeated shapes, and general ones.
halves = st.integers(min_value=-3, max_value=3).map(lambda k: F(k, 2))
q3 = st.builds(lambda r, t: QScalar(r, t, 3), halves, halves)
small = st.integers(min_value=0, max_value=4)
q3_points = st.one_of(
    st.builds(lambda u, v: QPoint(u + F(v, 2), QScalar(0, F(v, 2), 3)), small, small),
    st.builds(QPoint, q3, q3),
)


@given(st.lists(q3_points, max_size=8, unique=True), st.booleans())
@settings(max_examples=150, deadline=None)
def test_distinct_triangle_count_matches_naive_scan(pts, include_degenerate):
    # Naive reference: one TriangleShape per triple, deduplicated by equality.
    ref = {shape_of(a, b, c) for a, b, c in combinations(pts, 3)}
    if not include_degenerate:
        ref = {s for s in ref if not is_degenerate(s)}
    count, shapes = distinct_triangle_count(pts, include_degenerate)
    assert count == len(ref)
    assert shapes == sorted(ref, key=lambda s: (s.s1, s.s2, s.s3))


def _sides(ground, keys):
    return [tuple(ground.values[r] for r in key) for key in keys]


def _cross(a, b, c):
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


@given(st.lists(q3_points, max_size=9, unique=True), st.booleans())
@settings(max_examples=150, deadline=None)
def test_sorted_sides_matches_distinct_shapes_exact(pts, include_degenerate):
    # The plain-Python reference, with collinearity tested on the points.
    ground = ground_set_from_points(pts)
    ref = sorted(ground.distinct_shapes(range(len(pts))))
    if not include_degenerate:
        flat = {ground.shape_key(a, b, c) for a, b, c in combinations(range(len(pts)), 3)
                if _cross(pts[a], pts[b], pts[c]) == 0}
        ref = [key for key in ref if key not in flat]
    assert _sides(ground, ground.sorted_sides(include_degenerate)) == _sides(ground, ref)


@pytest.mark.parametrize("n", [5, 10])
def test_sorted_sides_matches_distinct_shapes_matrix(n):
    ground = make_ngon_ground_set(n)  # a Q(sqrt 5) distance matrix
    ref = _sides(ground, sorted(ground.distinct_shapes(range(n))))
    assert len(ref) == (n * n + 6) // 12
    for include_degenerate in (True, False):  # no three vertices are collinear
        assert _sides(ground, ground.sorted_sides(include_degenerate)) == ref


@given(
    st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=2, max_size=12,
             unique=True),
    st.sampled_from([0.0, 1e-9, 0.01, 0.2]),
    st.floats(0.1, 10.0),
)
@settings(max_examples=150, deadline=None)
def test_sorted_sides_matches_distinct_shapes_float(pts, tolerance, scale):
    ground = ground_set_from_floats([(x * scale, y / 3) for x, y in pts], tolerance)
    ref = sorted(ground.distinct_shapes(range(len(pts))))
    assert _sides(ground, ground.sorted_sides()) == _sides(ground, ref)


def _degenerate_shapes(ground):
    """The zero-area shapes of a ground set, by the integer-pair test, after
    checking that test against `is_degenerate` on every shape."""
    v = ground.values
    disc, _, pairs = _integer_pairs([_coerce(x) for x in v])  # float sets: exact rationals
    flat = []
    for s in ground.sorted_sides():
        zero = _zero_area(*(pairs[r] for r in s), disc)
        assert zero == is_degenerate(TriangleShape(*(v[r] for r in s)))
        if zero:
            flat.append(s)
    assert ground.sorted_sides(False) == [s for s in ground.sorted_sides() if s not in flat]
    return flat


@given(st.lists(q3_points, max_size=9, unique=True))
@settings(max_examples=150, deadline=None)
def test_zero_area_matches_is_degenerate_q3(pts):
    _degenerate_shapes(ground_set_from_points(pts))


# Each set is built inside the test, so a fault in a builder fails its case
# instead of the collection of the whole module.
@pytest.mark.parametrize("build, flat", [
    (lambda: ground_set_from_points(HEXAGON + [O]), 1),  # a diagonal through the centre
    (lambda: ground_set_from_points([QPoint(u, F(v, 3)) for u in range(4) for v in range(4)]), 6),
    (lambda: ground_set_from_floats([(u, v) for u in range(3) for v in range(3)]), 2),
    (lambda: make_ngon_ground_set(5), 0),  # Q(sqrt 5) distance matrices
    (lambda: make_ngon_ground_set(10), 0),
    # sides 1, (1 + sqrt 5)/2 and their sum on one line
    (lambda: ground_set_from_matrix(3, [QScalar(1), QScalar(F(3, 2), F(1, 2), 5),
                                        QScalar(F(7, 2), F(3, 2), 5)]), 1),
    # 16 area^2 = (16/9) sqrt 5: its rational part alone is zero
    (lambda: ground_set_from_matrix(3, [QScalar(1), QScalar(1), QScalar(F(2, 3), F(2, 3), 5)]),
     0),
], ids=["hexagon-centre", "grid4-thirds", "float-grid3", "ngon5", "ngon10", "collinear-q5",
        "rational-part-zero"])
def test_zero_area_matches_is_degenerate(build, flat):
    assert len(_degenerate_shapes(build())) == flat


def test_sorted_sides_keys_one_row_at_a_time():
    # a seeded 48-point set of the triangular lattice, built like the
    # benchmark's point-set input; keying a block of 65,536 (row, pair)
    # entries at a time peaked at 2.70 MiB on this set
    cells = random.Random(11).sample([(u, v) for u in range(10) for v in range(10)], 48)
    ground = ground_set_from_points([QPoint(u + F(v, 2), v * S3H) for u, v in cells])
    tracemalloc.start()
    try:
        ground.sorted_sides()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_sorted_sides_of_small_sets(n):
    ground = ground_set_from_points(HEXAGON[:n])
    assert ground.sorted_sides() == sorted(ground.distinct_shapes(range(n)))
    assert len(ground.sorted_sides()) == (n == 3)


def test_distinct_triangle_count_rejects_duplicates():
    with pytest.raises(PreconditionError):
        distinct_triangle_count([O, QPoint(1, 0), QPoint(1, 0)])


# --- ground sets from exact points -------------------------------------------

def _reference_ground_set(pts):
    """Values and rank rows from one sq_dist per pair, ordered by QScalar."""
    dist = {(i, j): sq_dist(pts[i], pts[j]) for i, j in combinations(range(len(pts)), 2)}
    values = sorted(set(dist.values()))
    rank = {v: r for r, v in enumerate(values)}
    rows = [[-1] * len(pts) for _ in pts]
    for (i, j), d in dist.items():
        rows[i][j] = rows[j][i] = rank[d]
    return values, rows


def _random_points(rng, disc, n):
    """n distinct points of Q(sqrt disc)^2 with negative and non-integer parts."""
    def part():
        return F(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6)))

    def scalar():
        return QScalar(part(), part() if disc > 1 else 0, disc)

    pts = []
    while len(pts) < n:
        p = QPoint(scalar(), scalar())
        if p not in pts:
            pts.append(p)
    return pts


@pytest.mark.parametrize("disc", [1, 2, 3])
def test_ground_set_from_points_matches_pairwise_reference(disc):
    rng = random.Random(disc)
    for n in [0, 1, 2, 3] + [rng.randint(4, 16) for _ in range(30)]:
        pts = _random_points(rng, disc, n)
        gs = ground_set_from_points(pts)
        values, rows = _reference_ground_set(pts)
        assert [repr(v) for v in gs.values] == [repr(v) for v in values]
        assert gs._rank == tuple(map(tuple, rows))


def test_ground_set_from_points_names_the_first_duplicate_pair():
    pts = _random_points(random.Random(7), 3, 3)
    # pair order visits (0, 4) before (1, 3)
    with pytest.raises(PreconditionError, match=r"indices 0, 4$"):
        ground_set_from_points(pts + [pts[1], pts[0]])


def test_ground_set_from_points_refuses_two_fields():
    pts = [O, QPoint(QScalar(0, 1, 2), 1), QPoint(2, QScalar(1, 1, 3))]
    with pytest.raises(DiscriminantMismatch):
        ground_set_from_points(pts)


# --- ground sets from matrices ----------------------------------------------

def test_ground_set_from_matrix_refuses_a_negative_size():
    # n = -3 asks for (-3)(-4)/2 = 6 entries
    with pytest.raises(PreconditionError, match="size must be >= 0"):
        ground_set_from_matrix(-3, [QScalar(1)] * 6)
    assert ground_set_from_matrix(0, []).size == 0
    assert ground_set_from_matrix(1, []).size == 1

