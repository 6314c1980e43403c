import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sensapprox.funcspace import (
    SensitiveApproximant,
    StepFunction,
    TriangleWave,
    build_zigzag,
)
from sensapprox.measures import BLOCK

from paper_route import slope_profile


# signed zeros, the smallest and largest subnormals and the smallest normal
_WAVE_PROBES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                -2.225073858507201e-308, 2.2250738585072014e-308]


def mod_form_wave(xs, b):
    """Reference: the wave through np.mod, which eval_arr matches bit for bit."""
    t = np.mod(np.asarray(xs, dtype=float) * b, 2.0)
    return 1.0 - np.abs(t - 1.0)


def assert_same_floats(got, want):
    """Equal bit patterns, signed zeros included."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def approximant(phi0, scale, b):
    return SensitiveApproximant(phi0=phi0, scale=Fraction(scale), wave=TriangleWave(b))


class TestBuildZigzag:
    def test_simple(self):
        assert build_zigzag(Fraction(1), Fraction(0)).b == 2

    def test_half_eps(self):
        assert build_zigzag(Fraction(1, 2), Fraction(3)).b == 16

    def test_non_dyadic(self):
        assert build_zigzag(Fraction(3, 10), Fraction(1)).b == 14

    def test_decimal_float_inputs(self):
        # a float is its exact binary value: 0.3 lies just below 3/10, and
        # 4 / 0.3 = 13.33... rounds up to 14 as 4 / (3/10) does
        assert build_zigzag(0.3, 1).b == 14

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            build_zigzag(Fraction(0), Fraction(1))

    def test_scaled_slope_reaches_threshold(self):
        for eps, M in [(Fraction(1, 3), Fraction(5)), (Fraction(7, 9), Fraction(0))]:
            b = build_zigzag(eps, M).b
            assert (eps / 2) * b >= M + 1


class TestTriangleWave:
    def test_even_lattice_zero(self):
        assert TriangleWave(2).eval(0) == 0

    def test_odd_lattice_one(self):
        assert TriangleWave(2).eval(Fraction(1, 2)) == 1

    def test_midpoint(self):
        assert TriangleWave(2).eval(Fraction(1, 4)) == Fraction(1, 2)

    def test_bounds_random(self):
        w = TriangleWave(7)
        xs = np.random.default_rng(0).uniform(-50, 50, 10**5)
        vals = w.eval_arr(xs)
        assert np.all(vals >= 0) and np.all(vals <= 1)

    @settings(deadline=None)
    @given(st.fractions(min_value=-20, max_value=20, max_denominator=997),
           st.integers(min_value=1, max_value=50))
    def test_periodicity_exact(self, x, b):
        w = TriangleWave(b)
        assert w.eval(x + Fraction(2, b)) == w.eval(x)

    @given(st.fractions(min_value=-20, max_value=20, max_denominator=997),
           st.integers(min_value=1, max_value=50))
    def test_range_exact(self, x, b):
        v = TriangleWave(b).eval(x)
        assert 0 <= v <= 1

    @pytest.mark.parametrize("b", [2.0, 2.5, Fraction(5, 2)])
    def test_non_integer_frequency_raises(self, b):
        with pytest.raises(ValueError, match="positive integer"):
            TriangleWave(b)

    def test_numpy_integer_frequency_is_an_int(self):
        w = TriangleWave(np.int64(3))
        assert type(w.b) is int and w.eval(Fraction(1, 3)) == 1

    def test_lattice_points_open_window(self):
        w = TriangleWave(2)
        assert w.lattice_points(-1, 1) == [Fraction(-1, 2), 0, Fraction(1, 2)]

    @settings(deadline=None, max_examples=300)
    @given(st.integers(min_value=1, max_value=2 * 10**7),
           st.integers(min_value=-10**9, max_value=10**9),
           st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=20))
    @example(b=1, j=0, extra=[])  # t = -2^-1074, where the two forms' t differ
    def test_eval_arr_is_the_mod_form_bit_for_bit(self, b, j, extra):
        lattice = j / b
        xs = [lattice, math.nextafter(lattice, -math.inf), math.nextafter(lattice, math.inf)]
        xs += extra + _WAVE_PROBES
        w = TriangleWave(b)
        with np.errstate(over="ignore", invalid="ignore"):  # x * b may overflow
            assert_same_floats(w.eval_arr(np.array(xs)), mod_form_wave(xs, b))
        for x in xs[:3] + _WAVE_PROBES:
            for arg in (x, np.float64(x), np.array(x)):
                got = w.eval_arr(arg)
                assert np.ndim(got) == 0
                assert_same_floats(got, mod_form_wave(arg, b))

    def test_eval_arr_of_non_finite_points_is_nan(self):
        with np.errstate(invalid="ignore"):
            vals = TriangleWave(3).eval_arr(np.array([math.inf, -math.inf, math.nan]))
        assert np.all(np.isnan(vals))


class TestStepFunction:
    @pytest.mark.parametrize("terms, exceptions", [
        ([("1/0", 0, 1)], []), ([(1, "1/0", 2)], []), ([(1, 0, "1/0")], []),
        ([(1, 0, 1)], [("1/0", 1)]), ([(1, 0, 1)], [(2, "1/0")]),
    ])
    def test_zero_denominator_raises_as_fraction_does(self, terms, exceptions):
        with pytest.raises(ZeroDivisionError):
            StepFunction(terms=terms, exceptions=exceptions)

    def test_sup_norm(self):
        s = StepFunction(terms=[(3, 0, 1), (-5, 2, 3)], exceptions=[(4, 1)])
        assert s.sup_norm() == 5

    def test_zero_exception_inside_a_term_is_kept(self):
        s = StepFunction(terms=[(1, 0, 1)], exceptions=[(Fraction(1, 2), 0)])
        assert s.exceptions == ((Fraction(1, 2), 0),)
        assert s.eval(Fraction(1, 2)) == 0
        assert s.eval_arr(np.array([0.25, 0.5, 0.75])).tolist() == [1.0, 0.0, 1.0]
        assert s.eval_arr(0.5) == 0.0
        assert s != StepFunction(terms=[(1, 0, 1)])

    @pytest.mark.parametrize("pin", [
        (0, 0), (1, 0), (-1, 0), (2, 0),
        # a nonzero value that the terms already take there
        (Fraction(1, 2), 1), (Fraction(3, 2), 2), (0.25, 1.0), ("7/4", "2/1"),
    ], ids=lambda pin: str(pin[0]) if pin[1] == 0 else f"{pin[0]}-{pin[1]}")
    def test_zero_exception_where_the_terms_are_zero_is_dropped(self, pin):
        plain = StepFunction(terms=[(1, 0, 1), (2, 1, 2)])
        s = StepFunction(terms=[(1, 0, 1), (2, 1, 2)], exceptions=[pin])
        assert s.exceptions == ()
        assert s == plain and hash(s) == hash(plain)
        assert s.endpoints() == plain.endpoints()
        assert np.array_equal(s._runs, plain._runs)

    @pytest.mark.parametrize("offset", [1, -1])
    def test_exception_at_the_float_of_a_breakpoint_wins_there(self, offset):
        # 1/2 + offset * 10^-20 and the term end 1/2 are one float
        pt = Fraction(1, 2) + Fraction(offset, 10**20)
        s = StepFunction(terms=[(1, 0, Fraction(1, 2)), (2, Fraction(1, 2), 1)],
                         exceptions=[(pt, 5)])
        assert s.eval(Fraction(1, 2)) == 0 and s.eval(pt) == 5
        for xs in (np.array([0.5]), np.array([0.25, 0.5, 0.5, 0.75]), np.array([0.75, 0.5])):
            assert s.eval_arr(xs)[xs == 0.5].tolist() == [5.0] * int((xs == 0.5).sum())
            assert s._search_lookup(xs).tolist() == s.eval_arr(xs).tolist()

    def test_eval_arr_matches_eval(self):
        s = StepFunction(terms=[(2, 0, 1), (-1, 1, 2)], exceptions=[(1, 5)])
        xs = np.array([-0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
        expect = [float(s.eval(Fraction(float(x)))) for x in xs]
        assert np.allclose(s.eval_arr(xs), expect)

    def test_eval_arr_of_a_0d_point_is_a_scalar(self):
        s = StepFunction(terms=[(1, 0, 1)], exceptions=[(0, 5)])
        for x, want in ((0.0, 5.0), (0.5, 1.0), (2.0, 0.0)):
            for arg in (x, np.float64(x), np.array(x)):
                got = s.eval_arr(arg)
                assert np.ndim(got) == 0
                assert got == want


_dyadic = st.builds(
    lambda k, j: Fraction(k, 2**j),
    st.integers(min_value=-64, max_value=64), st.integers(min_value=0, max_value=4),
)
_value = st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool)
# an exception's value may be 0: kept inside a term, dropped elsewhere
_exc_value = st.fractions(min_value=-9, max_value=9, max_denominator=7)


@st.composite
def step_parts(draw):
    """Sorted disjoint terms, possibly with infinite ends, shared ends and
    gaps, plus exceptions, of value 0 too, at term ends, inside terms and
    elsewhere; all points are dyadic, so they are exact floats and
    eval_arr must agree with eval exactly."""
    pts = sorted(set(draw(st.lists(_dyadic, max_size=8))))
    ends = [-math.inf] + pts + [math.inf]
    terms = [
        (draw(_value), lo, hi)
        for lo, hi in zip(ends, ends[1:])
        if draw(st.booleans())
    ]
    interior = [(lo + hi) / 2 for _, lo, hi in terms
                if math.isfinite(lo) and math.isfinite(hi)]
    candidates = sorted(set(pts + interior + draw(st.lists(_dyadic, max_size=3))))
    exc_pts = draw(st.lists(st.sampled_from(candidates), unique=True)) if candidates else []
    return terms, [(p, draw(_exc_value)) for p in exc_pts]


def step_functions():
    return step_parts().map(lambda parts: StepFunction(*parts))


@settings(deadline=None)
@given(step_functions(),
       st.lists(st.floats(min_value=-100, max_value=100), max_size=20),
       st.randoms(use_true_random=False))
def test_eval_arr_agrees_with_exact_eval(s, extra, rnd):
    xs = [float(p) for p in s.endpoints()]
    xs += [math.nextafter(x, d) for x in list(xs) for d in (-math.inf, math.inf)]
    xs += extra + [-1e300, 1e300]
    shuffled = list(xs)
    rnd.shuffle(shuffled)
    # the lookup must not depend on the order of the points: sampled
    # points arrive in ascending runs, quadrature knots in any order
    for points in (xs, shuffled, sorted(xs)):
        expect = [float(s.eval(Fraction(x))) for x in points]
        assert s.eval_arr(np.array(points)).tolist() == expect
    # the infinities lie in the outer cells, as -1e300 and 1e300 do
    assert (s.eval_arr(np.array([-math.inf, math.inf])).tolist()
            == s.eval_arr(np.array([-1e300, 1e300])).tolist())


@settings(deadline=None)
@given(step_functions(),
       st.lists(st.floats(allow_nan=False), max_size=30),
       st.lists(st.integers(1, 4), max_size=40),
       st.data())
def test_merge_lookup_equals_the_binary_search(s, extra, repeats, data):
    pts = [float(p) for p in s.endpoints()]
    xs = pts + [math.nextafter(x, d) for x in pts for d in (-math.inf, math.inf)]
    xs += extra + [-0.0, 0.0, -math.inf, math.inf]
    # repeated values: each point as many times as drawn
    xs = np.sort(np.repeat(xs, (repeats + [1] * len(xs))[:len(xs)]))
    want = s._search_lookup(xs)
    assert_same_floats(s._merge_lookup(xs), want)
    assert_same_floats(s.eval_arr(xs), want)
    # one point, no point, half the points, and a run shorter than the table
    for part in (xs[:1], xs[:0], xs[len(xs) // 2:], xs[:len(pts) // 2]):
        assert_same_floats(s._merge_lookup(part), s._search_lookup(part))
        assert_same_floats(s.eval_arr(part), s._search_lookup(part))
    # one NaN, or one descent, sends the input to the binary search
    i = data.draw(st.integers(0, len(xs) - 1))
    broken = [np.insert(xs, i, math.nan)]
    if xs[i] < xs[-1]:
        broken.append(np.append(xs, xs[i]))
    for ys in broken:
        assert_same_floats(s.eval_arr(ys), s._search_lookup(ys))


@pytest.mark.parametrize("size", [BLOCK, 4 * BLOCK])
def test_merge_lookup_equals_the_binary_search_on_a_large_table(size):
    # about 20 000 breakpoints: eval_arr searches a block of 2^15 sorted
    # draws, as each breakpoint that a merge places costs about two
    # searched points, and merges four such blocks in one run
    rng = np.random.default_rng(3)
    ends = np.unique(rng.normal(size=20_001)).tolist()
    s = StepFunction(terms=[(v, lo, hi) for v, lo, hi in
                            zip(rng.integers(-8, 8, len(ends) - 1).tolist(), ends, ends[1:])])
    xs = np.sort(np.concatenate((rng.normal(size=size - len(ends)), ends)))
    want = s._search_lookup(xs)
    assert_same_floats(s._merge_lookup(xs), want)
    assert_same_floats(s.eval_arr(xs), want)


@st.composite
def near_equal_step_parts(draw):
    """Terms and exceptions whose exact breakpoints come in clusters that
    round to one float: around each float c, two or three of c - u/8, c
    and c + u/8, u the ulp of c. Returns the terms, the exceptions and
    the floats c."""
    centres = sorted(set(draw(st.lists(st.floats(-100, 100), min_size=1, max_size=4))))
    pts = set()
    for c in centres:
        q, u = Fraction(c), Fraction(math.ulp(c)) / 8
        pts.update(draw(st.lists(st.sampled_from([q - u, q, q + u]),
                                 min_size=2, max_size=3, unique=True)))
    pts = sorted(pts)
    ends = [-math.inf] + pts + [math.inf]
    terms = [(draw(_value), lo, hi) for lo, hi in zip(ends, ends[1:]) if draw(st.booleans())]
    exc_pts = draw(st.lists(st.sampled_from(pts), unique=True))
    return terms, [(p, draw(_exc_value)) for p in exc_pts], centres


@settings(deadline=None)
@given(near_equal_step_parts())
def test_merge_lookup_at_breakpoints_that_round_to_one_float(parts):
    terms, exc, centres = parts
    s = StepFunction(terms=terms, exceptions=exc)
    xs = sorted(centres + [math.nextafter(c, d) for c in centres
                           for d in (-math.inf, math.inf)])
    for points in (np.array(xs), np.repeat(xs, 2), np.array(centres)):
        assert_same_floats(s.eval_arr(points), s._search_lookup(points))
    # an exception alone at its float gives its value there, whichever
    # breakpoint of that float sorts first
    for c in centres:
        values = [v for p, v in s.exceptions if float(p) == c]
        if len(values) == 1:
            assert s.eval_arr(np.array([c])).tolist() == [float(values[0])]


@st.composite
def ascending_runs(draw, points):
    """One to five ascending runs of the points, joined: a run starts at
    or below the end of the one before where drawn so, and a NaN goes
    anywhere where drawn."""
    runs = []
    for _ in range(draw(st.integers(1, 5))):
        run = sorted(draw(st.lists(st.sampled_from(points), min_size=1, max_size=10)))
        if runs and draw(st.booleans()):
            start = draw(st.sampled_from([x for x in points if x <= runs[-1][-1]]))
            run = [start] + [x for x in run if x >= start]
        runs.append(run)
    xs = [x for run in runs for x in run]
    if draw(st.booleans()):
        xs.insert(draw(st.integers(0, len(xs))), math.nan)
    return np.array(xs)


def _run_starts(xs):
    """The index of each point that does not rise from the one before."""
    return [i for i in range(1, len(xs)) if not xs[i] >= xs[i - 1]]


@settings(deadline=None)
@given(near_equal_step_parts(), st.data())
def test_runwise_merge_equals_the_binary_search(parts, data):
    terms, exc, centres = parts
    s = StepFunction(terms=terms, exceptions=exc)
    points = sorted({x for c in [*centres, *(float(p) for p in s.endpoints())]
                     for x in (math.nextafter(c, -math.inf), c, math.nextafter(c, math.inf))}
                    | {-math.inf, -0.0, math.inf} | set(data.draw(st.lists(st.floats(-200, 200)))))
    xs = data.draw(ascending_runs(points))
    want = s._search_lookup(xs)
    cuts = _run_starts(xs)
    assert_same_floats(s._merge_lookup(xs, cuts), want)
    assert_same_floats(s.eval_arr(xs), want)
    # many points a run: eval_arr merges each run
    many = np.repeat(xs, 2000)
    out = np.empty(many.size)
    assert s.eval_arr(many, out=out) is out
    assert_same_floats(out, np.repeat(want, 2000))
    assert_same_floats(s._merge_lookup(many, _run_starts(many)), np.repeat(want, 2000))


@settings(deadline=None)
@given(step_parts().filter(lambda parts: len(parts[0]) > 1), st.data())
def test_any_unsorted_term_order_raises(parts, data):
    terms, exc = parts
    StepFunction(terms=terms, exceptions=exc)  # the sorted order builds
    if len(terms) <= 5:
        orders = list(itertools.permutations(terms))
    else:
        orders = [data.draw(st.permutations(terms)) for _ in range(20)]
    for order in orders:
        if list(order) == terms:
            continue
        with pytest.raises(ValueError, match="sorted and disjoint"):
            StepFunction(terms=order, exceptions=exc)


@settings(deadline=None)
@given(step_parts().filter(lambda parts: parts[0]), st.data())
def test_overlapping_terms_raise_in_any_order(parts, data):
    terms, exc = parts
    v, lo, hi = data.draw(st.sampled_from(terms))
    if math.isfinite(lo) and math.isfinite(hi):
        inside = (lo + hi) / 2
    elif math.isfinite(hi):
        inside = hi - 1
    else:
        inside = Fraction(0) if lo == -math.inf else lo + 1
    width = data.draw(st.sampled_from([Fraction(1, 64), Fraction(1), math.inf]))
    extra = data.draw(st.sampled_from([(-v, inside, inside + width),
                                       (v, lo, hi)]))
    order = data.draw(st.permutations(terms + [extra]))
    with pytest.raises(ValueError, match="disjoint"):
        StepFunction(terms=order, exceptions=exc)


class TestApproximantEval:
    def test_pure_wave(self):
        y = approximant(StepFunction(), Fraction(1, 2), 2)
        assert y.eval(Fraction(1, 2)) == Fraction(1, 2)

    def test_pipeline_lattice_point(self):
        # b=440 puts 1/440 at an odd lattice point inside (0,1)
        phi0 = StepFunction(terms=[(3, 0, 1)])
        y = approximant(phi0, Fraction(1, 20), 440)
        assert y.eval(Fraction(1, 440)) == Fraction(3) + Fraction(1, 20)

    def test_half_lattice_point(self):
        phi0 = StepFunction(terms=[(3, 0, 1)])
        y = approximant(phi0, Fraction(1, 20), 220)
        # 1/440 is the midpoint of the first lattice cell of b=220
        assert y.eval(Fraction(1, 440)) == Fraction(3) + Fraction(1, 40)

    def test_far_left_even_lattice(self):
        phi0 = StepFunction(terms=[(3, 0, 1)])
        y = approximant(phi0, Fraction(1, 20), 220)
        # -5*220 = -1100 is even, so the wave vanishes there
        assert y.eval(-5) == 0

    def test_boundedness_random(self):
        phi0 = StepFunction(terms=[(3, 0, 1), (-2, 2, 5)])
        y = approximant(phi0, Fraction(1, 4), 8)
        xs = np.random.default_rng(1).uniform(-10, 10, 10**5)
        bound = float(y.sup_bound())
        assert np.all(np.abs(y.eval_arr(xs)) <= bound + 1e-12)


class TestSlopeProfile:
    def test_single_wave_cells(self):
        y = approximant(StepFunction(), Fraction(1, 2), 2)
        prof = slope_profile(y, 0, 1)
        assert prof == [
            (0, Fraction(1, 2), 1),
            (Fraction(1, 2), 1, -1),
        ]

    def test_pipeline_slope_m_plus_one(self):
        # the wave of eps = 1/2, M = 3: scale eps / 2, b = 2 (M + 1) / eps
        y = approximant(StepFunction(), Fraction(1, 4), 16)
        prof = slope_profile(y, Fraction(-1, 2), Fraction(1, 2))
        assert all(abs(s) == 4 for _, _, s in prof)
        assert y.min_abs_slope() == 4

    def test_pipeline_slope_eleven(self):
        # the wave of eps = 1/10, M = 10
        y = approximant(StepFunction(), Fraction(1, 20), 220)
        prof = slope_profile(y, 0, Fraction(1, 10))
        assert all(abs(s) == 11 for _, _, s in prof)

    def test_slope_matches_finite_difference_exactly(self):
        phi0 = StepFunction(terms=[(2, Fraction(1, 3), Fraction(5, 3))])
        y = approximant(phi0, Fraction(1, 4), 6)
        for lo, hi, slope in slope_profile(y, 0, 2):
            width = hi - lo
            a = lo + width / 5
            b = lo + 2 * width / 5
            fd = (y.eval(b) - y.eval(a)) / (b - a)
            assert fd == slope


class TestNondiffPoints:
    def test_wave_only(self):
        y = approximant(StepFunction(), Fraction(1, 2), 2)
        assert y.nondiff_points(-1, 1) == [Fraction(-1, 2), 0, Fraction(1, 2)]

    def test_union_with_endpoints(self):
        phi0 = StepFunction(terms=[(1, Fraction(1, 4), Fraction(3, 4))])
        y = approximant(phi0, Fraction(1, 2), 2)
        assert y.nondiff_points(0, 1) == [
            Fraction(1, 4),
            Fraction(1, 2),
            Fraction(3, 4),
        ]

    def test_b3(self):
        y = approximant(StepFunction(), Fraction(1, 2), 3)
        assert y.nondiff_points(0, 1) == [Fraction(1, 3), Fraction(2, 3)]

    def test_isolation_gap(self):
        phi0 = StepFunction(terms=[(1, Fraction(1, 7), Fraction(2, 7))])
        y = approximant(phi0, Fraction(1, 2), 5)
        pts = y.nondiff_points(-2, 2)
        gaps = [b - a for a, b in zip(pts, pts[1:])]
        assert min(gaps) > 0

    def test_count_at_huge_b_is_closed_form(self):
        # 2000 b - 1 lattice points in (-1000, 1000), plus 1/3 off the
        # lattice; 1/2 and 1000 lie on it. Listing them would not finish,
        # and at b = 10^20 they are more than a range's len() can count.
        phi0 = StepFunction(terms=[(1, Fraction(1, 3), Fraction(1, 2)),
                                   (2, Fraction(1, 2), Fraction(1000))])
        for b in (10**9, 10**20):
            y = approximant(phi0, Fraction(1, 2), b)
            assert y.nondiff_count(-1000, 1000) == 2000 * b

    def test_sensitize_lists_no_lattice(self, monkeypatch):
        from sensapprox import cli
        from sensapprox.approx import ApproxRequest, sensitize
        from sensapprox.measures import BorelMeasure
        from sensapprox.parsing import parse_measure, parse_target

        def boom(*_args):
            raise AssertionError("sensitize listed lattice points")

        monkeypatch.setattr(SensitiveApproximant, "nondiff_points", boom)
        monkeypatch.setattr(TriangleWave, "lattice_points", boom)
        req = ApproxRequest(
            target=parse_target("x"),
            mu=BorelMeasure.from_spec(parse_measure("uniform(0,1)")),
            p=1, eps=Fraction(1, 10), M=Fraction(999),
        )
        cert = sensitize(req)
        fields = cli._fields(cert)
        monkeypatch.undo()
        assert fields["b"] == 20_000
        window = [Fraction(fields["window"][key]) for key in ("lower", "upper")]
        assert fields["nondiff_count_in_window"] == len(cert.approximant.nondiff_points(*window))


@st.composite
def approximant_and_window(draw):
    """An approximant whose phi0 ends and exceptions lie on and off its
    lattice, with a rational window whose ends may be lattice points."""
    b = draw(st.integers(min_value=1, max_value=60))
    on = st.integers(min_value=-3 * b, max_value=3 * b).map(lambda j: Fraction(j, b))
    off = st.fractions(min_value=-3, max_value=3, max_denominator=13)
    point = st.one_of(on, off)
    pts = sorted(set(draw(st.lists(point, max_size=8))))
    terms = [(draw(_value), lo, hi) for lo, hi in zip(pts, pts[1:])
             if draw(st.booleans())]
    exc = [(p, draw(_value)) for p in draw(st.lists(point, max_size=3, unique=True))]
    lo, hi = sorted(draw(st.lists(point, min_size=2, max_size=2, unique=True)))
    y = approximant(StepFunction(terms=terms, exceptions=exc), Fraction(1, 2), b)
    return y, lo, hi


@settings(deadline=None)
@given(approximant_and_window())
def test_nondiff_count_matches_listed_points(case):
    y, lo, hi = case
    pts = y.nondiff_points(lo, hi)
    assert y.nondiff_count(lo, hi) == len(pts)
    inside = {p for p in y.phi0.endpoints() if lo < p < hi}
    assert pts == sorted(set(y.wave.lattice_points(lo, hi)) | inside)


# dyadic floats of every scale, signed: an odd mantissa of up to 53 bits
# times 2^e, from the smallest subnormal 2^-1074 up past 2^1000
_float_point = st.builds(
    lambda sign, m, e: sign * math.ldexp(2 * m + 1, e),
    st.sampled_from([-1.0, 1.0]), st.integers(0, 2**52 - 1), st.integers(-1074, 970),
).filter(math.isfinite)
_float_value = st.one_of(_float_point, st.sampled_from([0.0, -0.0, 5e-324, 2.0**1000]))


@st.composite
def float_step_parts(draw):
    """Sorted disjoint float terms, possibly with infinite ends, and float
    exceptions at ends, inside terms and elsewhere."""
    pts = sorted(set(draw(st.lists(_float_point, max_size=8))))
    ends = [-math.inf] + pts + [math.inf]
    terms = [(draw(_float_value), lo, hi) for lo, hi in zip(ends, ends[1:])
             if draw(st.booleans())]
    candidates = sorted(set(pts + draw(st.lists(_float_point, max_size=4))))
    exc_pts = draw(st.lists(st.sampled_from(candidates), unique=True)) if candidates else []
    return terms, [(p, draw(_float_value)) for p in exc_pts]


def _exact_float(x):
    return x if math.isinf(x) else Fraction(x)


@settings(deadline=None)
@given(float_step_parts(), st.lists(_float_point, max_size=10))
@example(([(5e-324, -5e-324, 5e-324), (2.0**1000, 1.0, 2.0**1000)],
          [(0.0, 0.0), (-5e-324, 3.0)]), [])
def test_floats_enter_as_their_exact_values(parts, extra):
    terms, exc = parts
    s = StepFunction(terms=terms, exceptions=exc)
    q = StepFunction(terms=[tuple(map(_exact_float, t)) for t in terms],
                     exceptions=[tuple(map(Fraction, e)) for e in exc])
    assert s.terms == q.terms and s.exceptions == q.exceptions
    assert s.endpoints() == q.endpoints() and s == q and hash(s) == hash(q)
    assert s.endpoint_floats().tolist() == [float(p) for p in q.endpoints()]
    xs = [float(p) for p in q.endpoints()] + extra + [0.0, -0.0]
    xs += [math.nextafter(x, d) for x in list(xs) for d in (-math.inf, math.inf)]
    for points in (np.array(xs), np.sort(xs)):
        assert_same_floats(s.eval_arr(points), q.eval_arr(points))
    # the Fraction oracles of sup_norm and eval
    values = [v for v, _, _ in q.terms] + [v for _, v in q.exceptions]
    assert s.sup_norm() == max(map(abs, values), default=0)
    # a float point is its exact value, as a float end is
    for x in xs[:8]:
        assert s.eval(x) == q.eval(Fraction(x)) == s.eval(Fraction(x))
        assert float(s.eval(x)) == s.eval_arr(x)


@settings(deadline=None)
@given(float_step_parts(), st.integers(1, 10**6), st.data())
def test_nondiff_count_of_float_ends_matches_a_fraction_oracle(parts, b, data):
    terms, exc = parts
    y = approximant(StepFunction(terms=terms, exceptions=exc), Fraction(1, 2), b)
    ends = [Fraction(p) for p in y.phi0.endpoints()]
    window = st.one_of(st.sampled_from(ends), st.fractions(-3, 3, max_denominator=50)) \
        if ends else st.fractions(-3, 3, max_denominator=50)
    lo, hi = sorted([data.draw(window), data.draw(window)])
    lattice = max(0, math.ceil(hi * b) - math.floor(lo * b) - 1)
    off = [p for p in ends if lo < p < hi and (p * b).denominator != 1]
    assert y.nondiff_count(lo, hi) == lattice + len(off)
    if lattice <= 1000:  # the lists hold the lattice
        pts = sorted(y.wave.lattice_points(lo, hi) + off)
        assert y.nondiff_points(lo, hi) == pts
        assert y.nondiff_floats(lo, hi) == [float(p) for p in pts]


def test_a_float_end_and_a_float_point_are_one_number():
    s = StepFunction(terms=[(1, 0.0, 0.1)])
    assert s.eval(0.1) == 0 and s.eval_arr(0.1) == 0.0
    assert s.eval(Fraction(1, 10)) == 1  # below the float 0.1
    # the approximant takes a float point as its exact binary value, for
    # phi0 and the wave alike: 0.1 is the end of the term, where phi0 is 0
    y = approximant(s, Fraction(1, 2), 2)
    assert y.eval(0.1) == Fraction(1, 2) * TriangleWave(2).eval(Fraction(0.1))
    assert y.eval(0.1) == y.phi0.eval(Fraction(0.1)) + y.scale * y.wave.eval(Fraction(0.1))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_float_numbers_raise(bad):
    with pytest.raises(ValueError, match="expected a finite number"):
        StepFunction(terms=[(bad, 0.0, 1.0)])
    with pytest.raises(ValueError, match="expected a finite number"):
        StepFunction(exceptions=[(bad, 1.0)])
    with pytest.raises(ValueError, match="expected a finite number"):
        StepFunction(exceptions=[(0.5, bad)])
    if math.isnan(bad):  # an infinite end is an open end of the line
        with pytest.raises(ValueError):
            StepFunction(terms=[(1.0, bad, 1.0)])
