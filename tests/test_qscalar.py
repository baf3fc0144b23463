"""Exact quadratic-field scalar arithmetic and ordering."""

from decimal import Decimal, localcontext
from fractions import Fraction as F

import pytest
from hypothesis import example, given, strategies as st

from dtl.errors import DiscriminantMismatch
from dtl.qscalar import QScalar, _sign, is_square_free

SQRT2 = QScalar(0, 1, 2)
SQRT3 = QScalar(0, 1, 3)


def test_construction_normalizes():
    assert QScalar(3) == QScalar(F(3), F(0), 1)
    # disc=1 folds the radical part into the rational part
    assert QScalar(1, 2, 1) == QScalar(3)
    # zero radical part collapses to the rational field
    assert QScalar(5, 0, 7).disc == 1


def test_square_free_required():
    with pytest.raises(ValueError):
        QScalar(0, 1, 4)
    with pytest.raises(ValueError):
        QScalar(0, 1, 12)
    with pytest.raises(ValueError):
        QScalar(0, 1, -2)


def test_each_disc_is_checked_once():
    # the trial division of a large D runs on the first scalar only; a
    # refused D is refused again from the cache
    is_square_free.cache_clear()
    for _ in range(3):
        assert QScalar(1, 1, 999_999_999_989).disc == 999_999_999_989
        with pytest.raises(ValueError):
            QScalar(1, 1, 4)
    info = is_square_free.cache_info()
    assert (info.misses, info.hits) == (2, 4)


def test_arithmetic():
    a = QScalar(1, 1, 2)  # 1 + √2
    b = QScalar(1, -1, 2)  # 1 − √2
    assert a + b == QScalar(2)
    assert a * b == QScalar(-1)  # 1 − 2
    assert a - a == QScalar(0)
    assert SQRT2 * SQRT2 == QScalar(2)


def test_mixed_field_rejected():
    with pytest.raises(DiscriminantMismatch):
        SQRT2 + SQRT3
    # rationals combine with anything
    assert QScalar(2) + SQRT3 == QScalar(2, 1, 3)


def test_sign_and_order():
    # 7/5 < √2 < 3/2
    assert QScalar(F(7, 5)) < SQRT2 < QScalar(F(3, 2))
    # 1 + √2 vs 2 + √2/2: compare signs exactly
    assert QScalar(1, 1, 2) < QScalar(2, F(1, 2), 2)
    assert QScalar(0).sign() == 0
    assert QScalar(0, -1, 5).sign() == -1
    # near-tie requiring exact squaring: 99/70 > √2 > 140/99
    assert QScalar(F(99, 70)) > SQRT2 > QScalar(F(140, 99))


def test_float_and_str():
    assert float(SQRT2) == pytest.approx(2 ** 0.5)
    assert str(QScalar(F(5, 2), F(-1, 2), 5)) == "5/2-1/2√5"
    assert str(QScalar(3)) == "3"


def test_hash_consistent_with_eq():
    assert hash(QScalar(1, 2, 1)) == hash(QScalar(3))
    s = {QScalar(3), QScalar(1, 2, 1), SQRT2}
    assert len(s) == 2
    # a rational QScalar equals its int or Fraction, so it must hash like one
    assert 3 in {QScalar(3)}
    assert F(1, 2) in {QScalar(F(1, 2))}


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


def qscalars(disc):
    return st.builds(lambda a, b: QScalar(a, b, disc), rationals, rationals)


@given(qscalars(2), qscalars(2), qscalars(2))
def test_cmp_transitive(a, b, c):
    if a <= b and b <= c:
        assert a <= c
    if a < b and b < c:
        assert a < c


@given(qscalars(3), qscalars(3))
def test_cmp_antisymmetric(a, b):
    assert (a < b) == (b > a)
    # exactly one of <, ==, > holds
    assert (a < b) + (a == b) + (a > b) == 1


@given(qscalars(5), qscalars(5))
def test_field_ops_consistent_with_float(a, b):
    assert float(a + b) == pytest.approx(float(a) + float(b), abs=1e-6)
    assert float(a * b) == pytest.approx(float(a) * float(b), abs=1e-6)


@given(qscalars(2))
def test_cmp_agrees_with_float(a):
    b = QScalar(F(3, 2))
    approx = float(a) - float(b)
    if abs(approx) > 1e-9:
        assert (a > b) == (approx > 0)
        assert (a < b) == (approx < 0)
        assert a != b


def decimal_sign(s, t, d):
    """Sign of s + t*sqrt(d) evaluated to 50 significant digits. Every nonzero
    value drawn below is at least 1e-42 of its larger term, well above the
    relative rounding of 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        value = (Decimal(s.numerator) / Decimal(s.denominator)
                 + Decimal(t.numerator) / Decimal(t.denominator) * Decimal(d).sqrt())
    return (value > 0) - (value < 0)


PELL = {2: (3, 2), 3: (2, 1), 5: (9, 4), 6: (5, 2), 7: (8, 3)}  # least x^2 - d y^2 = 1
BIG = st.integers(min_value=-10**12, max_value=10**12)
DENOM = st.integers(min_value=1, max_value=10**4)
DISCS = st.sampled_from(sorted(PELL))


@st.composite
def near_ties(draw):
    """s + t*sqrt(d) within 1/(2x) of 0 for a solution (x, y) of
    x^2 - d y^2 = 1, as the integer pair (x, -y) or as the convergent x/y
    against sqrt(d), such as 99/70 against sqrt(2); either sign."""
    d = draw(DISCS)
    x1, y1 = x, y = PELL[d]
    for _ in range(draw(st.integers(min_value=0, max_value=14))):
        x, y = x * x1 + d * y * y1, x * y1 + y * x1
    s, t = (F(x), F(-y)) if draw(st.booleans()) else (F(x, y), F(-1))
    sign = draw(st.sampled_from([1, -1]))
    return sign * s, sign * t, d


@given(st.one_of(
    st.tuples(st.builds(F, BIG), st.builds(F, BIG), DISCS),
    st.tuples(st.builds(F, BIG, DENOM), st.builds(F, BIG, DENOM), DISCS),
    # at d = 1 every caller has t = 0: QScalar folds the radical away
    st.tuples(st.builds(F, BIG, DENOM), st.just(F(0)), st.just(1)),
    near_ties(),
))
@example((F(99, 70), F(-1), 2))
@example((F(-99, 70), F(1), 2))
@example((F(0), F(0), 3))
def test_sign_matches_decimal(case):
    s, t, d = case
    assert _sign(s, t, d) == decimal_sign(s, t, d)
    if s.denominator == t.denominator == 1:  # the integer pairs ground sets compare
        assert _sign(int(s), int(t), d) == decimal_sign(s, t, d)
