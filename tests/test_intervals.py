import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from sensapprox.approx import ApproxRequest
from sensapprox.funcspace import SensitiveApproximant, StepFunction, TriangleWave, build_zigzag
from sensapprox.intervals import as_rational
from sensapprox.measures import BorelMeasure, Uniform
from sensapprox.parsing import parse_target, thresholds

from paper_route import Interval, IntervalUnion, closed_interval, open_interval, point


class TestAsRational:
    def test_fraction_passes_through(self):
        x = Fraction(1, 3)
        assert as_rational(x) is x

    def test_int_is_exact(self):
        big = 10**30 + 1
        assert as_rational(big) == Fraction(big)
        assert as_rational(-7) == Fraction(-7)

    def test_float_is_its_exact_binary_value(self):
        assert as_rational(0.1) == Fraction(3602879701896397, 36028797018963968)
        assert as_rational(0.1) == Fraction(0.1) != Fraction(1, 10)
        # a decimal is passed as text
        assert as_rational("0.1") == Fraction(1, 10)

    def test_infinite_ends_pass_only_when_asked(self):
        assert as_rational(-math.inf, ends=True) == -math.inf
        assert as_rational(math.inf, ends=True) == math.inf
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="expected a finite number"):
                as_rational(bad)
        with pytest.raises(ValueError, match="expected a finite number"):
            as_rational(math.nan, ends=True)

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
        assert thresholds(target) == [Fraction(math.sqrt(2))]


@settings(deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False), st.integers(1, 10**6),
       st.floats(1e-290, 1e300), st.floats(0, 1e6))
@example(0.1, 10, 0.7, 6.0)
@example(-0.0, 1, 5e-290, 0.0)
def test_every_entry_point_reads_a_float_as_its_exact_binary_value(x, b, eps, M):
    q = Fraction(x)
    assert as_rational(x) == q
    iv = closed_interval(x, x)
    assert (iv.lo, iv.hi) == (q, q)
    # StepFunction values, ends and exception points, and eval at a point
    # that only Fraction(x) finds
    if x:  # a value of 0 leaves no term
        assert StepFunction(terms=[(x, -math.inf, math.inf)]).terms == ((q, -math.inf, math.inf),)
    assert StepFunction(terms=[(1, x, math.inf)]).endpoints() == (q,)
    assert StepFunction(terms=[(1, -math.inf, x)]).terms[0][2] == q
    pin = StepFunction(exceptions=[(x, 1)])
    assert pin.exceptions == ((q, 1),)
    assert pin.eval(x) == 1
    wave = TriangleWave(b)
    assert wave.eval(x) == 1 - abs(q * b % 2 - 1)
    lattice = wave.lattice_range(x, x)
    assert (lattice.start, lattice.stop) == (math.floor(q * b) + 1, math.ceil(q * b))
    y = SensitiveApproximant(phi0=StepFunction(exceptions=[(q, 1)]), scale=Fraction(1, 2),
                             wave=wave, eps=1, M=0, p=1)
    assert y.eval(x) == 1 + wave.eval(q) / 2
    assert build_zigzag(eps, M).b == math.ceil(2 * (Fraction(M) + 1) / Fraction(eps))
    mass = abs(x) or 1.0
    assert BorelMeasure(atoms=[(x, mass)]).atoms == ((q, Fraction(mass)),)


def test_float_inputs_differ_from_their_decimals():
    # the float 0.7 lies below 7/10, so 14 / 0.7 exceeds 20
    assert build_zigzag(0.7, 6).b == 21
    assert build_zigzag("0.7", 6).b == build_zigzag(Fraction(7, 10), 6).b == 20
    # the float masses 0.3 and 0.7 sum to 1 - 2^-54, not 1
    with pytest.raises(ValueError, match="weights sum to"):
        BorelMeasure(atoms=[(0, 0.3)], parts=[(0.7, Uniform(0, 1))], total_mass=1)
    for m, w in (("0.3", "0.7"), (Fraction(3, 10), Fraction(7, 10))):
        mu = BorelMeasure(atoms=[(0, m)], parts=[(w, Uniform(0, 1))], total_mass=1)
        assert mu.atoms == ((0, Fraction(3, 10)),) and mu.total_mass == 1


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
