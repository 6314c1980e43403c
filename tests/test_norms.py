import math
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sensapprox import norms
from sensapprox.funcspace import StepFunction, TriangleWave
from sensapprox.measures import BLOCK, BorelMeasure, Exponential, Normal, PiecewisePoly, Uniform
from sensapprox.norms import (
    NonIntegrableError,
    lp_distance,
    lp_norm,
    mc_norm,
    wave_norm_bound,
)
from sensapprox.parsing import parse_measure, parse_target, target_evaluator

from mc_reference import reference_mc


def measure(text):
    return BorelMeasure.from_spec(parse_measure(text))


UNIFORM = measure("uniform(0,1)")
NORMAL = measure("normal(0,1)")
MIX = measure("mix(0.5*atom(0), 0.5*uniform(0,1))")
TENT = "pwd(breaks(0,0.5,1), poly(0,4), poly(4,-4))"


def const(c):
    return lambda xs: np.full(np.shape(xs), float(c))


class TestAbsPow:
    VALUES = np.array([0.0, -0.0, 5e-324, -5e-324, 0.3, -1.0, 1.5, -7.25, 1e-200,
                       1e308, -1e308])

    @pytest.mark.parametrize("p", [1, 2, 2.0, 0.5, 2.5, 1000])
    def test_is_numpy_power_of_abs_bit_for_bit(self, p):
        with np.errstate(over="ignore"):
            want = np.abs(self.VALUES) ** p
        assert norms.abs_pow(self.VALUES, p).tobytes() == want.tobytes()

    def test_overflow_is_inf_with_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = norms.abs_pow(np.array([1e200, -1e308, -10.0]), 2)
        assert got.tolist() == [math.inf, math.inf, 100.0]

    def test_writes_into_out_and_returns_it(self):
        d = np.array([-3.0, 2.0])
        out = np.empty(2)
        assert norms.abs_pow(d, 2, out=out) is out
        assert out.tolist() == [9.0, 4.0] and d.tolist() == [-3.0, 2.0]
        assert norms.abs_pow(d, 3, out=d) is d and d.tolist() == [27.0, 8.0]

    def test_without_out_the_input_is_unchanged(self):
        d = np.array([-3.0, 2.0])
        got = norms.abs_pow(d, 2)
        assert got is not d and got.tolist() == [9.0, 4.0] and d.tolist() == [-3.0, 2.0]


class TestLpNorm:
    def test_constant_total_mass(self):
        est = lp_norm(const(1), UNIFORM, p=3, tol=1e-9)
        assert est.value == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            lp_norm(const(1), UNIFORM, p=1, tol=tol)

    def test_scaled_indicator(self):
        f = StepFunction(terms=[(3, 0, Fraction(1, 2))])
        est = lp_norm(f.eval_arr, UNIFORM, p=1, tol=1e-9,
                      knots=[0.0, 0.5])
        assert est.value == pytest.approx(1.5, abs=1e-9)

    def test_normal_second_moment(self):
        f = target_evaluator(parse_target("x"))
        est = lp_norm(f, NORMAL, p=2, tol=1e-6)
        # oracle: Monte Carlo with 10^6 samples
        mc = mc_norm(f, NORMAL, p=2, n=10**6, seed=5)
        assert abs(est.value - mc.value) <= (
            est.absolute_error_bound + mc.absolute_error_bound
        )
        assert est.value == pytest.approx(1.0, abs=1e-4)

    def test_divergence_flagged(self):
        f = target_evaluator(parse_target("exp(x^2)"))
        with pytest.raises(NonIntegrableError):
            lp_norm(f, NORMAL, p=2, tol=1e-3)

    def test_atom_contribution(self):
        f = target_evaluator(parse_target("x + 2"))
        est = lp_norm(f, MIX, p=1, tol=1e-9)
        # 0.5*|0+2| + 0.5*int_0^1 (x+2) dx = 1 + 1.25
        assert est.value == pytest.approx(2.25, abs=1e-8)

    @pytest.mark.parametrize("text, target, p", [
        (TENT, "x^2", 2),
        (TENT, "log(abs(x-0.5))", 1),
        ("mix(0.3*atom(0.5), 0.7*normal(0,1))", "x^2", 2),
        ("mix(0.3*atom(0.5), 0.7*normal(0,1))", "abs(x-0.5)", 1),
    ])
    def test_the_quadrature_adds_the_measure_kinks_itself(self, text, target, p):
        # a caller that passes the measure's atoms and density jumps gets
        # the estimate of one that passes no knot, bit for bit
        mu, f = measure(text), target_evaluator(parse_target(target))
        kinks = [float(x) for x in mu.density_breakpoints()]
        for tol in (1e-3, 1e-6):
            assert lp_norm(f, mu, p, tol) == lp_norm(f, mu, p, tol, knots=kinks)

    def test_a_pole_at_a_density_jump_is_a_knot(self):
        # log|x - 1/2| is integrable against the tent, and 1/2, a jump of
        # its derivative, is a knot, so the pole is never evaluated:
        # 2 int_0^(1/2) 4t |log(1/2 - t)| dt = 3/2 + ln 2
        est = lp_norm(target_evaluator(parse_target("log(abs(x-0.5))")), measure(TENT), 1, 1e-6)
        assert est.value == pytest.approx(1.5 + math.log(2), abs=1e-4)


class TestLpDistance:
    def test_identity(self):
        f = target_evaluator(parse_target("sin(x) + x^2"))
        est = lp_distance(f, f, UNIFORM, p=2, tol=1e-9)
        assert est.value == pytest.approx(0.0, abs=1e-12)

    def test_indicator_difference(self):
        f = StepFunction(terms=[(1, 0, Fraction(3, 4))])
        g = StepFunction(terms=[(1, 0, Fraction(1, 2))])
        est = lp_distance(f.eval_arr, g.eval_arr, UNIFORM, p=2, tol=1e-9,
                          knots=[0.0, 0.5, 0.75])
        assert est.value == pytest.approx(0.5, abs=1e-9)

    def test_scaled_wave_mean(self):
        wave = TriangleWave(2)
        est = lp_distance(
            lambda xs: 0.5 * wave.eval_arr(xs), const(0), UNIFORM, p=1,
            tol=1e-9, knots=[0.0, 0.5, 1.0],
        )
        assert est.value == pytest.approx(0.25, abs=1e-9)


class TestMcNorm:
    def test_constant_exact(self):
        est = mc_norm(const(1), UNIFORM, p=2, n=10**4, seed=1)
        assert est.value == 1.0
        assert est.absolute_error_bound == 0.0

    def test_uniform_mean(self):
        f = target_evaluator(parse_target("x"))
        est = mc_norm(f, UNIFORM, p=1, n=10**6, seed=42)
        assert abs(est.value - 0.5) <= est.absolute_error_bound

    def test_wave_mean(self):
        wave = TriangleWave(2)
        est = mc_norm(wave.eval_arr, UNIFORM, p=1, n=10**6, seed=7)
        assert abs(est.value - 0.5) <= est.absolute_error_bound

    def test_requires_minimum_samples(self):
        with pytest.raises(ValueError):
            mc_norm(const(1), UNIFORM, p=1, n=10, seed=0)

    def test_finite_mass_scales_by_mass_root(self):
        est = mc_norm(const(1), measure("mix(2*uniform(0,1), mass=2)"), p=1,
                      n=10**4, seed=0)
        assert est.value == 2.0
        assert est.absolute_error_bound == 0.0

    @pytest.mark.parametrize("n", [1000, 1001, 1002, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
    @pytest.mark.parametrize("text,p", [
        ("mix(0.5*normal(0,1), 0.5*uniform(0,1))", 2.0),
        ("mix(0.6*atom(0.5), 1.4*exponential(1), mass=2)", 1.0),
        ("pwd(breaks(0,1,2), poly(0,1), poly(2,-1))", 1.5),
        ("pwd(breaks(0,1), poly(0,0,3))", 2.0),  # degree 2: bisection in the cell
        ("mix(0.3*atom(2), 0.2*atom(-1), 0.5*normal(0,1))", 2.0),
    ])
    def test_blocks_give_the_one_shot_estimate(self, text, p, n):
        mu = measure(text)
        phi0 = StepFunction(terms=[(1, -1, Fraction(1, 3)), (2, Fraction(1, 3), 1)],
                            exceptions=[(Fraction(1, 2), 5)])
        target = target_evaluator(parse_target("sin(3*x) + x^2"))
        for f in (target, lambda xs: phi0.eval_arr(xs) - target(xs)):
            est, want = mc_norm(f, mu, p=p, n=n, seed=4), reference_mc(f, mu, p, n, 4)
            if n <= BLOCK:
                assert est == want
            else:  # the sums are folded block by block, so they round otherwise
                assert abs(est.value - want.value) <= 4 * math.ulp(want.value)
                assert (abs(est.absolute_error_bound - want.absolute_error_bound)
                        <= 4 * math.ulp(want.absolute_error_bound))

    # n = 10^4 + 1 and + 2 end in a group of five and of six draws
    @pytest.mark.parametrize("n", [10**4, 10**4 + 1, 10**4 + 2])
    @pytest.mark.parametrize("target,text,p,exact", [
        ("x^2", "normal(0,1)", 2.0, math.sqrt(3)),
        ("sin(x)", "uniform(0,1)", 1.0, 1 - math.cos(1)),
        ("x", "exponential(1)", 2.0, math.sqrt(2)),
        ("exp(x)", "exponential(3)", 1.0, 1.5),  # e^x has no third moment
    ])
    def test_the_radius_holds_the_exact_norm(self, target, text, p, exact, n):
        # 4 sigma; a target with one jump is no case: the group of draws
        # that straddles it may miss it, radius 0 and all
        f, mu = target_evaluator(parse_target(target)), measure(text)
        held = 0
        for seed in range(200):
            est = mc_norm(f, mu, p=p, n=n, seed=seed)
            held += abs(est.value - exact) <= est.absolute_error_bound
        assert held >= 199

    @pytest.mark.parametrize("target, exact", [
        # every power underflows: 0.45^1000 is about 10^-347
        ("0.45", 0.45),
        # the first block's powers underflow and later blocks' do not, so
        # the sums are scaled down as the largest |f| grows
        ("0.3*x", 0.3 * 1001 ** -0.001),
        # the powers overflow
        ("10*x", 10 * 1001 ** -0.001),
    ])
    def test_powers_past_the_float_range_keep_the_norm(self, target, exact):
        # ||c x||_1000 on uniform(0,1) is c 1001^(-1/1000)
        f = target_evaluator(parse_target(target))
        est = mc_norm(f, UNIFORM, p=1000.0, n=3 * BLOCK + 7, seed=2)
        assert abs(est.value - exact) <= est.absolute_error_bound + 1e-12 * exact

    def test_powers_in_the_float_range_are_not_scaled(self):
        # the largest power is about (1/3)^p = 2^-479, within 2^+-480
        f = target_evaluator(parse_target("x"))
        p = 479.0 / math.log2(3.0)
        est = mc_norm(lambda xs: f(xs) / 3.0, UNIFORM, p=p, n=BLOCK, seed=4)
        assert est == reference_mc(lambda xs: f(xs) / 3.0, UNIFORM, p, BLOCK, 4)

    def test_memory_does_not_grow_with_n(self):
        phi0 = StepFunction(terms=[(1, -1, Fraction(1, 3)), (2, Fraction(1, 3), 1)],
                            exceptions=[(Fraction(1, 2), 5)])
        target = target_evaluator(parse_target("sin(3*x) + x^2"))

        def f(xs):
            return phi0.eval_arr(xs) - target(xs)

        def peak(n):
            tracemalloc.start()
            try:
                mc_norm(f, NORMAL, p=2, n=n, seed=6)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # numpy's first default_rng call in a process allocates about 1 MB
        mc_norm(f, NORMAL, p=2, n=1000, seed=6)
        small, large = peak(10**5), peak(10**6)
        # 10^6 draws as one array of floats would take 8 MB
        assert large < 2 * 10**6
        assert abs(large - small) <= 0.1 * small


class TestWaveNormBound:
    # the bound is of ||wave - 1/2||_p, the wave less its mean

    def test_probability_cap(self):
        assert wave_norm_bound(TriangleWave(5), NORMAL, p=2) <= 0.5 + 1e-12

    def test_uniform_computed_near_a_quarter(self):
        bound = wave_norm_bound(TriangleWave(2), UNIFORM, p=1)
        assert 0.245 <= bound <= 0.255

    def test_mass_four_cap(self):
        mu = measure("mix(4*uniform(0,1), mass=4)")
        assert wave_norm_bound(TriangleWave(3), mu, p=2) <= 1.0 + 1e-9

    def test_always_valid_upper_bound(self):
        for b in (2, 7, 16):
            wave = TriangleWave(b)
            bound = wave_norm_bound(wave, UNIFORM, p=2)
            # |wave - 1/2| kinks at the lattice points and at their midpoints
            knots = [j / (2 * b) for j in range(1, 2 * b)]
            est = lp_norm(lambda xs, w=wave: w.eval_arr(xs) - 0.5, UNIFORM, p=2,
                          tol=1e-8, knots=knots)
            assert est.value <= bound + 1e-9

    def test_a_large_p_or_b_stays_in_the_float_range(self):
        # 2^-p / (p+1) underflows, and b = 2^1023 doubles past the floats
        big_p = wave_norm_bound(TriangleWave(2), UNIFORM, p=2000.0)
        assert 0.5 * 2001 ** (-1 / 2000) <= big_p <= 0.5 + 1e-15
        big_b = wave_norm_bound(TriangleWave(2**1023), UNIFORM, p=2.0)
        assert 3 ** -0.5 / 2 <= big_b <= 3 ** -0.5 / 2 + 1e-14

    @pytest.mark.parametrize("loc, b, p, exact", [
        # at a lattice point |wave - 1/2| is 1/2, its largest, at any p
        ("0.6", 5, 2.0, Fraction(1, 2)),
        ("0", 5, 1.5, Fraction(1, 2)),
        # off it: wave(3/10) = 6/10 at b = 2, so |wave - 1/2| = 1/10
        ("0.3", 2, 2.0, Fraction(1, 10)),
        # at a midpoint the wave is 1/2
        ("0.25", 2, 1.0, Fraction(0)),
    ], ids=["lattice", "origin", "off-lattice", "midpoint"])
    def test_an_atom_adds_its_exact_term(self, loc, b, p, exact):
        mu = measure(f"atom({loc})")
        bound = wave_norm_bound(TriangleWave(b), mu, p)
        assert float(exact) <= bound <= float(exact) * (1 + 1e-13) + 1e-300


def _mp(q):
    return mpmath.mpf(q.numerator) / q.denominator


def _mp_density(kind):
    """(pdf, lo, hi, mass outside [lo, hi]) of a density kind, in mpmath."""
    if isinstance(kind, Uniform):
        a, b = _mp(kind.a), _mp(kind.b)
        return (lambda x: 1 / (b - a)), a, b, 0
    if isinstance(kind, Normal):
        m, sd = _mp(kind.mean), _mp(kind.std)
        pdf = lambda x: mpmath.npdf(x, m, sd)  # noqa: E731
        return pdf, m - 8 * sd, m + 8 * sd, mpmath.erfc(8 / mpmath.sqrt(2))
    if isinstance(kind, Exponential):
        r = _mp(kind.rate)
        return (lambda x: r * mpmath.exp(-r * x)), 0, 20 / r, mpmath.exp(-20)
    assert isinstance(kind, PiecewisePoly)
    breaks = [_mp(b) for b in kind.breaks]
    cells = [(breaks[i], breaks[i + 1], [_mp(c) for c in piece])
             for i, piece in enumerate(kind.coeffs)]

    def pdf(x):
        for a, b, cs in cells:
            if a <= x <= b:
                return mpmath.polyval(cs[::-1], x)
        return 0

    return pdf, breaks[0], breaks[-1], 0


def _mp_wave_norm(mu, b, p):
    """(integral of |wave - 1/2|^p d mu)^(1/p) by mpmath.quad, split at the
    lattice points, at their midpoints and at the breakpoints; the tails
    outside the window count with weight 2^-p, the integrand's largest
    value, so the value is at least the exact norm."""
    half = mpmath.mpf(1) / 2
    centred = lambda x: abs(half - abs(mpmath.fmod(x * b, 2) - 1))  # noqa: E731
    total = mpmath.mpf(0)
    for loc, m in mu.atoms:
        total += _mp(m) * centred(_mp(loc)) ** p
    for w, kind in mu.parts:
        pdf, lo, hi, tail = _mp_density(kind)
        # a uniform or exponential density jumps at lo or hi only
        cuts = {lo, hi} | {_mp(q) for q in getattr(kind, "breaks", ())}
        cuts |= {mpmath.mpf(j) / (2 * b) for j in range(int(mpmath.floor(2 * lo * b)),
                                                        int(mpmath.ceil(2 * hi * b)) + 1)}
        cuts = sorted(c for c in cuts if lo <= c <= hi)
        part = mpmath.quad(lambda x: centred(x) ** p * pdf(x), cuts)
        total += _mp(w) * (part + half ** p * tail)
    return total ** (1 / mpmath.mpf(p))


BOUND_MEASURES = [
    measure("uniform(0,1)"),  # ends on every lattice
    measure("uniform(0.13, 0.71)"),
    measure("normal(0.3, 0.1)"),
    measure("exponential(8)"),
    # a jump at 1/2 and a degree-2 cell
    measure("pwd(breaks(0, 0.5, 1), poly(1), poly(3, -12, 12))"),
    measure("mix(0.25*atom(0.1), 0.5*atom(-0.37), 0.25*atom(1))"),
    # an atom at 0, a lattice point at every b, and one off the lattice
    measure("mix(0.25*atom(0), 0.25*atom(0.3), 0.5*uniform(0.13, 0.71))"),
    measure("mix(2*uniform(0,1), mass=2)"),
]


@settings(deadline=None, max_examples=40)
@example(BOUND_MEASURES[0], 2, 2.0)  # ends on the lattice: exact up to rounding
@example(BOUND_MEASURES[-1], 7, 1.0)
@given(st.sampled_from(BOUND_MEASURES), st.integers(1, 50), st.floats(1.0, 4.0))
def test_wave_norm_bound_is_at_least_the_quadrature(mu, b, p):
    with mpmath.workdps(20):
        reference = _mp_wave_norm(mu, b, p)
        assert mpmath.mpf(wave_norm_bound(TriangleWave(b), mu, p)) >= reference


def test_wave_norm_bound_needs_no_quadrature_at_large_b(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("lp_norm called")

    monkeypatch.setattr(norms, "lp_norm", refuse)
    bound = wave_norm_bound(TriangleWave(2 * 10**7), UNIFORM, 2)
    # ||wave - 1/2||_2 = 3^(-1/2) / 2 over whole half-periods
    assert 3 ** -0.5 / 2 <= bound <= 3 ** -0.5 / 2 + 1e-14


CORPUS = [
    ("x", UNIFORM, 1),
    ("x^2", UNIFORM, 2),
    ("sin(x)", UNIFORM, 1),
    ("abs(x - 0.5)", UNIFORM, 2),
    ("x", NORMAL, 2),
    ("abs(x)", NORMAL, 1),
    ("if(x < 0, 0, 1)", NORMAL, 1),
    ("x^2 + 1", MIX, 2),
    ("max(x, 0.25)", MIX, 1),
]


class TestInvariants:
    @pytest.mark.parametrize("text,mu,p", CORPUS)
    def test_oracle_agreement(self, text, mu, p):
        f = target_evaluator(parse_target(text))
        quad = lp_norm(f, mu, p, tol=1e-6)
        mc = mc_norm(f, mu, p, n=10**6, seed=3)
        assert abs(quad.value - mc.value) <= (
            quad.absolute_error_bound + mc.absolute_error_bound
        )

    def test_triangle_inequality(self):
        fs = [target_evaluator(parse_target(t)) for t in ("x", "x^2", "sin(x)")]
        for mu in (UNIFORM, MIX):
            d = {}
            for i, a in enumerate(fs):
                for j, b in enumerate(fs):
                    d[i, j] = lp_distance(a, b, mu, p=2, tol=1e-8)
            for i in range(3):
                for j in range(3):
                    for k in range(3):
                        lhs = d[i, k].value
                        rhs = (
                            d[i, j].value
                            + d[j, k].value
                            + d[i, j].absolute_error_bound
                            + d[j, k].absolute_error_bound
                            + d[i, k].absolute_error_bound
                        )
                        assert lhs <= rhs

    def test_homogeneity(self):
        f = target_evaluator(parse_target("x^2 - x"))
        base = lp_norm(f, UNIFORM, p=2, tol=1e-9)
        scaled = lp_norm(lambda xs: 3.0 * f(xs), UNIFORM, p=2, tol=1e-9)
        assert scaled.value == pytest.approx(3.0 * base.value, abs=1e-7)

    def test_p_monotonicity_on_probability_measures(self):
        for text in ("x", "sin(x)", "abs(x - 0.5)"):
            f = target_evaluator(parse_target(text))
            n1 = lp_norm(f, UNIFORM, p=1, tol=1e-8)
            n2 = lp_norm(f, UNIFORM, p=2, tol=1e-8)
            assert n1.value <= n2.value + n1.absolute_error_bound + n2.absolute_error_bound
