import math
from fractions import Fraction

import numpy as np
import pytest

from sensapprox.funcspace import StepFunction, TriangleWave
from sensapprox.measures import BorelMeasure
from sensapprox.norms import (
    NonIntegrableError,
    lp_distance,
    lp_norm,
    mc_norm,
    wave_norm_bound,
)
from sensapprox.parsing import parse_measure, parse_target, target_evaluator


def measure(text):
    return BorelMeasure.from_spec(parse_measure(text))


UNIFORM = measure("uniform(0,1)")
NORMAL = measure("normal(0,1)")
MIX = measure("mix(0.5*atom(0), 0.5*uniform(0,1))")


def const(c):
    return lambda xs: np.full(np.shape(xs), float(c))


class TestLpNorm:
    def test_constant_total_mass(self):
        est = lp_norm(const(1), UNIFORM, p=3, tol=1e-9)
        assert est.value == pytest.approx(1.0, abs=1e-9)

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


class TestWaveNormBound:
    def test_probability_cap(self):
        assert wave_norm_bound(TriangleWave(5), NORMAL, p=2) <= 1.0 + 1e-12

    def test_uniform_computed_near_half(self):
        bound = wave_norm_bound(TriangleWave(2), UNIFORM, p=1)
        assert 0.45 <= bound <= 0.55

    def test_mass_four_cap(self):
        mu = measure("mix(4*uniform(0,1), mass=4)")
        assert wave_norm_bound(TriangleWave(3), mu, p=2) <= 2.0 + 1e-9

    def test_always_valid_upper_bound(self):
        for b in (2, 7, 16):
            wave = TriangleWave(b)
            bound = wave_norm_bound(wave, UNIFORM, p=2)
            est = lp_norm(wave.eval_arr, UNIFORM, p=2, tol=1e-8,
                          knots=[float(k) for k in wave.lattice_points(0, 1)])
            assert est.value <= bound + 1e-9


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
