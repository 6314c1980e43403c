import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sensapprox.approx import ApproxRequest
from sensapprox.funcspace import build_zigzag
from sensapprox.intervals import (
    Interval,
    IntervalUnion,
    as_rational,
    closed_interval,
    open_interval,
    point,
)
from sensapprox.measures import BorelMeasure
from sensapprox.parsing import parse_target, piecewise_constant_thresholds


class TestAsRational:
    def test_fraction_passes_through(self):
        x = Fraction(1, 3)
        assert as_rational(x) is x

    def test_int_is_exact(self):
        big = 10**30 + 1
        assert as_rational(big) == Fraction(big)
        assert as_rational(-7) == Fraction(-7)

    def test_float_is_shortest_decimal(self):
        assert as_rational(0.1) == Fraction(1, 10)

    def test_non_finite_inputs_rejected(self):
        mu = BorelMeasure(atoms=[(0, 1)])
        with pytest.raises(ValueError):
            ApproxRequest(target=parse_target("x"), mu=mu, p=1,
                          eps=float("inf"), M=0)
        with pytest.raises(ValueError):
            build_zigzag(float("nan"), 1)

    def test_thresholds_keep_the_exact_binary_value(self):
        # eval_target compares points with the float sqrt(2) itself
        target = parse_target("if(x < sqrt(2), 1, 0)")
        assert piecewise_constant_thresholds(target) == [Fraction(math.sqrt(2))]


def test_normal_form_merges_overlap():
    u = IntervalUnion([open_interval(0, 2), open_interval(1, 3)])
    assert u.intervals == (open_interval(0, 3),)


def test_touching_open_intervals_stay_split():
    u = IntervalUnion([open_interval(0, 1), open_interval(1, 2)])
    assert len(u.intervals) == 2


def test_touching_with_closed_endpoint_merges():
    u = IntervalUnion([Interval(0, False, 1, True), open_interval(1, 2)])
    assert u.intervals == (Interval(0, False, 2, False),)


def test_point_fills_pinhole():
    u = IntervalUnion([open_interval(0, 1), point(1), open_interval(1, 2)])
    assert u.intervals == (open_interval(0, 2),)


def test_empty_interval_rejected():
    with pytest.raises(ValueError):
        Interval(1, False, 0, False)
    with pytest.raises(ValueError):
        Interval(1, False, 1, False)


def test_infinite_endpoints_open():
    with pytest.raises(ValueError):
        Interval(-math.inf, True, 0, False)
    iv = Interval(-math.inf, False, 0, True)
    assert iv.contains(-1000000)


def test_complement_of_open_interval():
    u = IntervalUnion([open_interval(0, 1)])
    c = u.complement()
    assert c.intervals == (
        Interval(-math.inf, False, 0, True),
        Interval(1, True, math.inf, False),
    )


def test_difference_and_superset():
    big = IntervalUnion([open_interval(0, 10)])
    small = IntervalUnion([closed_interval(2, 3), point(5)])
    assert big.superset_of(small)
    diff = big.difference(small)
    assert diff.intervals == (
        open_interval(0, 2),
        open_interval(3, 5),
        open_interval(5, 10),
    )
    assert not small.superset_of(big)


def test_contains_point_respects_flags():
    u = IntervalUnion([Interval(0, True, 1, False)])
    assert u.contains_point(0)
    assert not u.contains_point(1)
    assert u.contains_point(Fraction(1, 2))


_frac = st.fractions(min_value=-5, max_value=5, max_denominator=32)


@st.composite
def interval_unions(draw):
    k = draw(st.integers(min_value=0, max_value=4))
    ivs = []
    for _ in range(k):
        a = draw(_frac)
        b = draw(_frac)
        if a == b:
            ivs.append(point(a))
            continue
        lo, hi = min(a, b), max(a, b)
        ivs.append(Interval(lo, draw(st.booleans()), hi, draw(st.booleans())))
    return IntervalUnion(ivs)


@given(interval_unions())
def test_double_complement_is_identity(u):
    assert u.complement().complement() == u


@given(interval_unions(), interval_unions())
def test_union_contains_both(a, b):
    u = a.union(b)
    assert u.superset_of(a)
    assert u.superset_of(b)


@given(interval_unions(), interval_unions())
def test_de_morgan(a, b):
    lhs = a.union(b).complement()
    rhs = a.complement().intersect(b.complement())
    assert lhs == rhs


@given(interval_unions(), interval_unions())
def test_difference_disjoint_from_subtrahend(a, b):
    d = a.difference(b)
    assert d.intersect(b).is_empty
    assert a.superset_of(d)
