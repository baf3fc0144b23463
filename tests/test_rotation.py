"""Pythagorean-triple rotations, rotatability counts, minimal congruency sets."""

import bisect
import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dtl import rotation
from dtl.errors import CostGuardExceeded, PreconditionError
from dtl.lattice import BoundingBoxClass, bounding_box_class
from dtl.rotation import (
    _INT64_MAX_R,
    PythTriple,
    constant_sum,
    count_primitive_triples,
    count_rotatable_points,
    count_rotatable_triangles,
    enum_primitive_triples,
    lemma32_bound_check,
    lemma33_spot_check,
    rotatable_point_bound,
    smallest_triple_with_r_at_least,
    verify_minimality,
)
from reference import is_rotatable_by, minimal_congruency_set, rotatable_points, rotate_exact

T345 = PythTriple(3, 4, 5)
T435 = PythTriple(4, 3, 5)


# --- primitive triples ------------------------------------------------------

def test_enum_small():
    got = enum_primitive_triples(13)
    assert got == [T345, T435, PythTriple(5, 12, 13), PythTriple(12, 5, 13)]


def test_enum_rejects_small_bound():
    with pytest.raises(PreconditionError):
        enum_primitive_triples(4)


def test_count_is_the_length_of_the_list():
    for max_r in (5, 12, 13, 25, 26, 100, 3042, 10**5):
        assert count_primitive_triples(max_r) == len(enum_primitive_triples(max_r))
    with pytest.raises(PreconditionError):
        count_primitive_triples(4)


def test_count_holds_no_triple_list():
    # the list at max_r = 4 * 10**6 holds 1,273,234 PythTriple objects, about
    # 384 MB ru_maxrss; the count holds one block of arrays at a time
    tracemalloc.start()
    try:
        assert count_primitive_triples(4_000_000) == 1_273_234
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_list_refused_above_its_limit(monkeypatch):
    def unbuilt(max_r):
        raise AssertionError("triples built")

    monkeypatch.setattr(rotation, "_triple_arrays", unbuilt)
    with pytest.raises(CostGuardExceeded, match="triple list refused"):
        enum_primitive_triples(rotation.TRIPLE_LIST_LIMIT + 1)


def test_triples_are_primitive_and_pythagorean():
    for t in enum_primitive_triples(500):
        assert t.p**2 + t.q**2 == t.r**2
        assert math.gcd(t.p, t.q) == 1


def test_triples_sorted_both_orders():
    ts = enum_primitive_triples(100)
    assert ts == sorted(ts, key=lambda t: (t.r, t.p))
    legs = {(t.p, t.q) for t in ts}
    assert all((q, p) in legs for p, q in legs)


def _reference_triples(max_r):
    """Both leg orders of every coprime m > n >= 1 of opposite parity with
    m^2 + n^2 <= max_r, sorted by (r, p), in plain Python."""
    out = []
    for m in range(2, math.isqrt(max_r) + 1):
        for n in range(1, m):
            r = m * m + n * n
            if (m - n) % 2 and math.gcd(m, n) == 1 and r <= max_r:
                out += [(m * m - n * n, 2 * m * n, r), (2 * m * n, m * m - n * n, r)]
    return sorted(out, key=lambda t: (t[2], t[0]))


def test_enum_matches_plain_reference():
    ref = _reference_triples(700)
    for max_r in range(5, 701):
        got = [(t.p, t.q, t.r) for t in enum_primitive_triples(max_r)]
        assert got == [t for t in ref if t[2] <= max_r]


# Hypotenuse bounds up to about 3,000 that include m^2 + 1, the first cell of
# row m, and m^2 + (m - 1)^2, its last, so rows start and end at the bound.
SPLIT_MAX_R = sorted({*range(5, 40), *range(40, 3001, 29), 3041, 3042,
                      *(m * m + 1 for m in range(2, 55)),
                      *(m * m + (m - 1) ** 2 for m in range(2, 39))})


@pytest.mark.parametrize("cells", [1, 7, 64])
def test_triple_blocks_match_row_major_reference(monkeypatch, cells):
    # the gcd runs on uint16, which needs m < 2^16, so m^2 + 1 <= max_r < 2^32
    assert _INT64_MAX_R < 2**32
    # small blocks split the rows that the default block size keeps together
    monkeypatch.setattr(rotation, "_TRIPLE_CELLS", cells)
    ref = []  # one leg order, row-major in (m, n), in plain Python
    for m in range(2, math.isqrt(3042) + 1):
        for n in range(1, m):
            if (m - n) % 2 and math.gcd(m, n) == 1 and m * m + n * n <= 3042:
                ref.append((m * m - n * n, 2 * m * n, m * m + n * n))
    for max_r in SPLIT_MAX_R:
        blocks = [[a.tolist() for a in block] for block in rotation._triple_arrays(max_r)]
        got = [t for p, q, r in blocks for t in zip(p, q, r)]
        assert got == [t for t in ref if t[2] <= max_r], max_r
        # blocks hold consecutive m: m^2 = (p + r) / 2
        ms = [[math.isqrt((p + r) // 2) for p, _, r in zip(*b)] for b in blocks]
        ms = [b for b in ms if b]
        assert all(a[-1] < b[0] for a, b in zip(ms, ms[1:]))


def test_every_generated_triple_is_primitive():
    # the generator keeps gcd(m, n) = 1; Euclid on the legs checks that apart
    for p, q, _ in rotation._triple_arrays(10**6):
        assert (np.gcd(p, q) == 1).all()


@pytest.mark.parametrize("build", [enum_primitive_triples, constant_sum])
def test_triples_refuse_int64_overflow(build):
    # r^2 of a hypotenuse above isqrt(2^63 - 1) = 3,037,000,499 overflows int64
    with pytest.raises(CostGuardExceeded):
        build(3_037_000_500)


def test_invalid_triple_rejected():
    with pytest.raises(PreconditionError):
        PythTriple(3, 4, 6)
    with pytest.raises(PreconditionError):
        PythTriple(6, 8, 10)  # not primitive


# --- exact rotation ---------------------------------------------------------

def test_rotate_examples():
    assert rotate_exact((1, 2), T435) == (-1, 2)
    assert rotate_exact((2, 1), T345) == (1, 2)
    assert rotate_exact((0, 0), T345) == (0, 0)
    assert rotate_exact((1, 1), T345) is None


def test_rotation_preserves_norm():
    for t in enum_primitive_triples(30):
        for a in range(-6, 7):
            for b in range(-6, 7):
                img = rotate_exact((a, b), t)
                if img is not None:
                    assert img[0] ** 2 + img[1] ** 2 == a * a + b * b


def test_coordinate_integrality_equivalence():
    # one coordinate of the image is integral iff the other is
    for t in enum_primitive_triples(50):
        for a in range(t.r):
            for b in range(t.r):
                x_int = (a * t.q - b * t.p) % t.r == 0
                y_int = (a * t.p + b * t.q) % t.r == 0
                assert x_int == y_int


def test_congruence_image_agreement():
    # the points a = c*b (mod r) that rotatable_points lists are exactly
    # those whose image exists
    for t in enum_primitive_triples(30):
        box = [(a, b) for b in range(t.r) for a in range(t.r)]
        assert set(rotatable_points(t.r, t)) == {p for p in box if is_rotatable_by(p, t)}


def test_quarter_turn_periodicity():
    # rotatable by θ iff rotatable by θ+90°: the θ+90° image is the
    # quarter-turn of the θ image, so presence must agree
    for t in enum_primitive_triples(30):
        for a in range(-5, 6):
            for b in range(-5, 6):
                img = rotate_exact((a, b), t)
                quarter = rotate_exact((-b, a), t)  # pre-rotate by 90°
                assert (img is None) == (quarter is None)


# --- rotatable points -------------------------------------------------------

def test_rotatable_points_5():
    assert set(rotatable_points(5, T345)) == {(0, 0), (2, 1), (4, 2), (1, 3), (3, 4)}
    assert count_rotatable_points(5, T345) == 5


def test_count_rotatable_points_small():
    assert count_rotatable_points(2, T345) == 1  # origin only
    assert count_rotatable_points(1, PythTriple(5, 12, 13)) == 1


@pytest.mark.parametrize("int64_max_r", [_INT64_MAX_R, 0])
def test_count_rotatable_points_matches_the_points(monkeypatch, int64_max_r):
    triples = enum_primitive_triples(100)
    # the count is exact on Python ints, so neither limit selects a path
    monkeypatch.setattr(rotation, "_INT64_MAX_R", int64_max_r)
    for t in triples:
        for n in range(1, 61):
            assert count_rotatable_points(n, t) == len(rotatable_points(n, t))


@given(st.integers(0, 200), st.integers(1, 10**6), st.integers(-10**7, 10**7),
       st.integers(-10**7, 10**7))
def test_floor_sum_matches_the_plain_sum(n, m, a, b):
    assert rotation._floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))


def test_count_rotatable_points_holds_no_points():
    # listing the points took 70.4 MB at n = 2,000 and grows like n^2
    tracemalloc.start()
    try:
        assert count_rotatable_points(2_000, T345) == 800_000
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # a triple whose r^2 overflows int64, and an n past int64
    big = PythTriple(55_200**2 - 1, 2 * 55_200, 55_200**2 + 1)
    assert big.r > _INT64_MAX_R
    # (55200, 1) and (55199, 55201) are rotatable
    assert count_rotatable_points(60_000, big) == len(rotatable_points(60_000, big)) == 3
    assert count_rotatable_points(10**20, T345) == 10**40 // 5
    # 10^12 rows, all short of one period of r: with m = 4*10^7, r = m^2 + 1
    # and c = m (mod r), row b = x*m + y holds the point (y*m - x) mod r,
    # below n for x = y = 0, for y in [1, 24999] and for y = 25000, x >= 1
    huge = PythTriple(1_599_999_999_999_999, 80_000_000, 1_600_000_000_000_001)
    assert count_rotatable_points(10**12, huge) == 1 + 24_999 * 25_000 + 24_999 == 625_000_000


def test_point_bound_table():
    assert rotatable_point_bound(5, 5) == 5  # r < n: r·⌈n/r⌉²
    assert rotatable_point_bound(5, 13) == 5  # n ≤ r ≤ 2n²: n
    assert rotatable_point_bound(2, 13) == 1  # r > 2n²: origin only


@pytest.mark.parametrize("max_r, max_n", [(4, 30), (50, 0)])
def test_lemma32_refuses_an_empty_check(max_r, max_n):
    with pytest.raises(PreconditionError):
        lemma32_bound_check(max_r, max_n)


def test_lemma32_bounds_hold():
    rep = lemma32_bound_check(50, 30)
    assert rep.violations == []
    assert rep.cases
    tight = [
        c for c in rep.cases
        if c.n == 5 and (c.triple.p, c.triple.q) == (3, 4) and c.count == c.bound
    ]
    assert tight and tight[0].count == 5


# --- rotatable triangles ----------------------------------------------------

def test_rotatable_triangle_examples():
    pairs = set(rotation._rotatable_pairs(5).tolist())

    def rotatable(a, b):
        ca, cb = sorted((a[0] * 5 + a[1], b[0] * 5 + b[1]))
        return ca * 25 + cb in pairs

    assert not rotatable((2, 1), (1, 1))
    assert not rotatable((1, 0), (0, 1))
    # (2,1) and (4,2) share (3,4,5): images (1,2) and (2,4)
    assert rotatable((2, 1), (4, 2))
    # (2,1) is only rotatable at (3,4,5)'s angle, (1,2) only at (4,3,5)'s;
    # no single rotation moves both, so the pair is not simultaneously rotatable
    assert not rotatable((2, 1), (1, 2))


def _pair_sum_bound(n):
    """Sum over triples of C(f, 2) with f the rotatable-point count of
    [n] x [n], origin excluded: the raw per-triple pairs, an upper bound on
    the rotatable-triangle count."""
    return sum(
        math.comb(count_rotatable_points(n, t) - 1, 2)
        for t in enum_primitive_triples(max(5, 2 * (n - 1) ** 2))
    )


def test_count_rotatable_triangles_small():
    assert count_rotatable_triangles(2).total == 0
    assert count_rotatable_triangles(3).total == 0
    b = count_rotatable_triangles(8)
    assert b.total == b.three_on_box + b.two_on_box
    assert b.total <= _pair_sum_bound(8)


def _reference_breakdown(n):
    """Rotatable origin-vertex triangles of [n] x [n] as a plain-Python pair
    set, each classified by `bounding_box_class`."""
    grid = [(u, v) for u in range(n) for v in range(n) if (u, v) != (0, 0)]
    pairs = set()
    for t in enum_primitive_triples(max(5, 2 * (n - 1) ** 2)):
        pts = [pt for pt in grid if is_rotatable_by(pt, t)]
        pairs.update(combinations(pts, 2))
    three = sum(bounding_box_class(a, b) is BoundingBoxClass.THREE_ON_BOX for a, b in pairs)
    return (len(pairs), three, len(pairs) - three)


@pytest.mark.parametrize("n", range(2, 17))
def test_count_rotatable_triangles_matches_pair_set(n):
    b = count_rotatable_triangles(n)
    assert (b.total, b.three_on_box, b.two_on_box) == _reference_breakdown(n)


@pytest.mark.parametrize("n", range(2, 17))
def test_rotatable_pair_sum_bound_matches_plain_sum(n):
    # the bound the pair-table tests use, from count_rotatable_points,
    # against a plain count of each triple's points over the grid
    grid = [(u, v) for u in range(n) for v in range(n) if (u, v) != (0, 0)]
    want = 0
    for t in enum_primitive_triples(max(5, 2 * (n - 1) ** 2)):
        f = sum(is_rotatable_by(pt, t) for pt in grid)
        want += f * (f - 1) // 2
    assert _pair_sum_bound(n) == want


def test_count_rotatable_triangles_n40():
    b = count_rotatable_triangles(40)
    assert (b.total, b.three_on_box, b.two_on_box) == (130_730, 72_739, 57_991)


def _reference_pairs(n):
    """The rotatable pair table from `rotatable_points` of each triple."""
    pairs = set()
    for t in enum_primitive_triples(max(5, 2 * (n - 1) ** 2)):
        codes = sorted(u * n + v for u, v in rotatable_points(n, t) if (u, v) != (0, 0))
        pairs.update(a * n * n + b for a, b in combinations(codes, 2))
    return np.array(sorted(pairs), dtype=np.int64)


def test_rotatable_pairs_match_per_triple_reference():
    for n in range(2, 41):
        got = rotation._rotatable_pairs(n)
        assert got.dtype == np.int64
        assert np.array_equal(got, _reference_pairs(n)), n


def test_rotatable_pairs_memory_is_bounded_by_the_raw_pairs():
    # the table peaks below 4 times the bytes of its raw per-triple pairs,
    # and the count, table included, below twice the table's bytes
    raw_bytes = 8 * _pair_sum_bound(40)
    table_bytes = rotation._rotatable_pairs(40).nbytes
    peaks = []
    for build in (rotation._rotatable_pairs, count_rotatable_triangles):
        tracemalloc.start()
        try:
            build(40)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 4 * raw_bytes
    assert peaks[1] < 2 * table_bytes


def test_count_rotatable_triangles_limit():
    with pytest.raises(CostGuardExceeded):
        count_rotatable_triangles(65)


# --- constant ---------------------------------------------------------------

def test_constant_sum_cutoff_guard():
    with pytest.raises(PreconditionError):
        constant_sum(999)


@pytest.mark.parametrize("cutoff, partial", [
    (1000, 0.056680238289353854),
    (2000, 0.056761037552419465),
    (12345, 0.056827408462504746),
    (10**5, 0.05683871783246837),
    (10**6, 0.05684014989718507),
    (10**7, 0.05684029315095895),
])
def test_constant_sum_partial_is_exact(cutoff, partial):
    # the correctly rounded sum over both leg orders, bit for bit
    assert constant_sum(cutoff).partial == partial


def _scaled_sum(values):
    """The exact sum of the floats, times 2^1074, as an int."""
    total = 0
    for v in values:
        num, den = v.as_integer_ratio()
        total += num << (1075 - den.bit_length())
    return total


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_exact_parts_sum_to_the_exact_sum(data):
    size = data.draw(st.integers(1, rotation._TRIPLE_CELLS), label="size")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32), label="seed"))
    if data.draw(st.booleans(), label="widest significands"):
        f = np.full(size, np.nextafter(1.0, 0.0))  # 53 ones: hi and lo at their top
    else:
        f = rng.uniform(0.5, 1.0, size)
    # few exponents make long bincount sums; the widest range reaches the
    # smallest normal, whose lo part is a multiple of 2^-1074
    low = data.draw(st.integers(-1021, 1000), label="low exponent")
    spread = data.draw(st.integers(0, 1000 - low), label="exponent spread")
    x = np.ldexp(f, rng.integers(low, low + spread + 1, size))
    drawn = data.draw(st.lists(st.floats(2.0**-1022, 2.0**1000), max_size=20), label="drawn")
    x = np.concatenate((x, drawn))[: rotation._TRIPLE_CELLS]
    parts = rotation._exact_parts(x)
    terms = x.tolist()
    assert _scaled_sum(parts) == _scaled_sum(terms)
    assert math.fsum(parts) == math.fsum(terms)


@pytest.mark.parametrize("cutoff", [10**6, 10**7])
def test_constant_sum_holds_one_block_at_a_time(cutoff):
    tracemalloc.start()
    try:
        constant_sum(cutoff)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20


@pytest.mark.parametrize("cells", [1, 7])
def test_constant_sum_does_not_depend_on_the_blocks(monkeypatch, cells):
    # at 1090 to 1092 the last row, m = 33, holds no cell: 33^2 + 2^2 > max_r
    cutoffs = [1000, 1090, 1091, 1092, 1093, 12345]
    want = [constant_sum(c).partial for c in cutoffs]
    monkeypatch.setattr(rotation, "_TRIPLE_CELLS", cells)
    assert [constant_sum(c).partial for c in cutoffs] == want


def test_constant_sum_values():
    c = constant_sum(10**5)
    assert c.partial == pytest.approx(0.05685, abs=2e-4)
    assert c.tail_bound <= 0.0064
    assert c.total_bound < 0.0633
    assert c.total_bound == c.partial + c.tail_bound


def test_constant_sum_partial_monotone_in_cutoff():
    a = constant_sum(1000)
    b = constant_sum(2000)
    assert b.partial > a.partial
    assert b.tail_bound < a.tail_bound


# --- minimal congruency sets ------------------------------------------------

def test_minimal_set_type1():
    got = minimal_congruency_set((3, 2), (1, 1))
    want = {
        frozenset({(0, 0), (3, 2), (1, 1)}),
        frozenset({(0, 0), (2, 3), (1, 1)}),
        frozenset({(0, 0), (3, 2), (2, 1)}),
        frozenset({(0, 0), (2, 3), (1, 2)}),
    }
    assert got == want


def test_minimal_set_type2():
    got = minimal_congruency_set((4, 1), (1, 3))
    assert len(got) == 2


def test_minimal_set_preconditions():
    with pytest.raises(PreconditionError):
        minimal_congruency_set((2, 1), (1, 2))  # isosceles
    with pytest.raises(PreconditionError):
        minimal_congruency_set((3, 0), (1, 1))  # axis-parallel side
    with pytest.raises(PreconditionError):
        minimal_congruency_set((2, 2), (1, 1))  # degenerate
    with pytest.raises(PreconditionError):
        minimal_congruency_set((3, 4), (-1, 2))  # outside first quadrant


def test_minimal_sets_share_one_shape():
    from reference import _shape_key

    for a, b in [((3, 2), (1, 1)), ((4, 1), (1, 3)), ((4, 3), (1, 2))]:
        keys = set()
        for tri in minimal_congruency_set(a, b):
            pts = sorted(tri)
            keys.add(_shape_key(*(p for p in pts if p != (0, 0))))
        assert len(keys) == 1


def test_verify_minimality_small():
    rep = verify_minimality(6)
    assert rep.violations == []
    assert rep.checked > 0


@pytest.mark.parametrize("n, checked, skipped", [
    (6, 140, 268), (8, 704, 828), (10, 2144, 1852), (12, 5180, 3484),
])
def test_verify_minimality_counts(n, checked, skipped):
    rep = verify_minimality(n)
    assert (rep.checked, rep.skipped_axis_parallel, rep.violations) == (checked, skipped, [])


def _reference_minimality(n):
    """(checked, skipped_axis_parallel, violations) of the Lemma 3.1 scan,
    pair by pair from the per-pair references."""
    from reference import _AXIS_PARALLEL, _minimal_set_undefined, _origin_pairs

    pairs = list(_origin_pairs(n))
    by_shape = {}
    for key, a, b in pairs:
        by_shape.setdefault(key, set()).add(frozenset(((0, 0), a, b)))
    rotatable = set(rotation._rotatable_pairs(n).tolist())
    checked, skipped, violations = 0, 0, []
    for key, a, b in pairs:
        reason = _minimal_set_undefined(a, b)
        if reason is not None:
            skipped += reason == _AXIS_PARALLEL
            continue
        if (a[0] * n + a[1]) * n * n + b[0] * n + b[1] in rotatable:
            continue
        if by_shape[key] != minimal_congruency_set(a, b):
            violations.append((a, b))
        checked += 1
    return checked, skipped, violations


def _report(rep):
    return rep.checked, rep.skipped_axis_parallel, rep.violations


@pytest.mark.parametrize("n", range(4, 13))
def test_verify_minimality_matches_per_pair_reference(n):
    assert _report(verify_minimality(n)) == _reference_minimality(n)


@pytest.mark.parametrize("n, violations", [(6, 4), (8, 20), (12, 278)])
def test_verify_minimality_reports_rotatable_pairs_without_the_table(monkeypatch, n, violations):
    # with no pairs marked rotatable, the rotatable triangles whose class is
    # larger than their minimal set are violations, in pair order
    monkeypatch.setattr(rotation, "_rotatable_pairs", lambda n: np.empty(0, dtype=np.int64))
    got = _report(verify_minimality(n))
    assert got == _reference_minimality(n)
    assert len(got[2]) == violations


def test_verify_minimality_guard():
    with pytest.raises(CostGuardExceeded):
        verify_minimality(13)


def test_verify_minimality_smallest_n():
    # n = 4 is the smallest grid holding a triangle the scan checks
    assert verify_minimality(4).checked == 6
    with pytest.raises(PreconditionError):
        verify_minimality(3)


# --- asymptotic spot check --------------------------------------------------

def test_smallest_triple_selection():
    r_min = 3906250
    t = smallest_triple_with_r_at_least(r_min)
    assert t.r >= r_min
    # no primitive triple with smaller hypotenuse clears the threshold: Euclid's
    # r = m^2 + n^2, m > n > 0 coprime of opposite parity, has none in [r_min, t.r)
    below = [
        (m, n)
        for m in range(math.isqrt(r_min // 2), math.isqrt(t.r) + 1)
        for n in range(math.isqrt(max(r_min - m * m, 0)), math.isqrt(max(t.r - m * m, 0)) + 1)
        if 0 < n < m and r_min <= m * m + n * n < t.r and (m - n) % 2 and math.gcd(m, n) == 1
    ]
    assert below == []


def test_smallest_triple_matches_plain_reference():
    ref = _reference_triples(6100)  # sorted by (r, p): the first of each r has p < q
    rs = [t[2] for t in ref]
    for r_min in range(3001):
        t = smallest_triple_with_r_at_least(r_min)
        assert (t.p, t.q, t.r) == ref[bisect.bisect_left(rs, r_min)]


@pytest.mark.parametrize("r_min", [(_INT64_MAX_R - 8) // 2 + 1, 10**12])
def test_smallest_triple_refuses_beyond_int64_window(r_min):
    # the search window 2 r_min + 8 would pass the int64 guard
    with pytest.raises(CostGuardExceeded):
        smallest_triple_with_r_at_least(r_min)


def test_lemma33_spot_check():
    t = smallest_triple_with_r_at_least(2 * 5**4 * 3125)
    rep = lemma33_spot_check(5, 3125, t)
    assert rep.ok
    assert rep.count <= 3125 // 5


def test_lemma33_hypothesis_errors():
    with pytest.raises(PreconditionError):
        lemma33_spot_check(4, 3125, T345)  # m too small
    with pytest.raises(PreconditionError):
        lemma33_spot_check(5, 20, T345)  # n below m⁵
    with pytest.raises(PreconditionError):
        lemma33_spot_check(5, 3125, T345)  # r below 2m⁴n


# --- property sweeps --------------------------------------------------------

# deferred, so a generator fault fails the tests that draw from it, not the
# collection of the whole module
triples_strategy = st.deferred(lambda: st.sampled_from(enum_primitive_triples(100)))
small_pts = st.tuples(
    st.integers(min_value=-20, max_value=20), st.integers(min_value=-20, max_value=20)
)


@given(small_pts, triples_strategy)
@settings(max_examples=200)
def test_rotatable_by_means_image_exists(pt, t):
    img = rotate_exact(pt, t)
    assert is_rotatable_by(pt, t) == (img is not None)
    if img is not None:
        assert img[0] ** 2 + img[1] ** 2 == pt[0] ** 2 + pt[1] ** 2
