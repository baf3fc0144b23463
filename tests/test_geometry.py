"""Triangle shapes, congruence predicates, and distinct-triangle counting."""

from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from dtl.errors import PreconditionError
from dtl.geometry import (
    CongruenceFlag,
    QPoint,
    ShapeClass,
    TriangleShape,
    classify,
    classify_congruence,
    congruent_apex_positions,
    diameter,
    distinct_triangle_count,
    is_degenerate,
    is_isosceles,
    is_right,
    shape_of,
    sq_dist,
)
from dtl.qscalar import QScalar

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
    assert is_right(s)
    assert not is_isosceles(s)
    assert not is_degenerate(s)


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


def test_classify():
    assert classify(shape_of(O, QPoint(1, 1), QPoint(2, 2))).degenerate
    assert classify(shape_of(O, QPoint(3, 0), QPoint(0, 4))).right
    assert classify(shape_of(O, QPoint(2, 1), QPoint(1, 2))).isosceles
    scalene = classify(shape_of(O, QPoint(3, 0), QPoint(1, 1)))
    assert not (scalene.isosceles or scalene.right or scalene.degenerate)


def test_triangle_shape_rejects_nonpositive():
    with pytest.raises(PreconditionError):
        TriangleShape(QScalar(0), QScalar(1), QScalar(1))


def test_apex_positions_share_shape():
    a, b, c = O, QPoint(4, 0), QPoint(1, 2)
    base = shape_of(a, b, c)
    alts = congruent_apex_positions(a, b, c)
    assert alts  # at least the reflection across AB
    for d in alts:
        assert d != c
        assert shape_of(a, b, d) == base


def test_classify_congruence_nonempty():
    a, b, c = O, QPoint(4, 0), QPoint(1, 2)
    for d in congruent_apex_positions(a, b, c):
        assert classify_congruence(a, b, c, d) != CongruenceFlag(0)


def test_axis_reflection_flagged():
    a, b, c = O, QPoint(4, 0), QPoint(1, 2)
    mirror = QPoint(1, -2)
    assert CongruenceFlag.AXIS in classify_congruence(a, b, c, mirror)


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


def test_diameter():
    assert diameter(UNIT_SQUARE) == QScalar(2)
    assert diameter(HEXAGON) == QScalar(4)


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
    assert shapes == sorted(ref, key=TriangleShape.sides)


def test_distinct_triangle_count_rejects_duplicates():
    with pytest.raises(PreconditionError):
        distinct_triangle_count([O, QPoint(1, 0), QPoint(1, 0)])
