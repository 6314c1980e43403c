import math
from fractions import Fraction

import numpy as np
import pytest

from sensapprox import approx
from sensapprox.approx import (
    ApproxRequest,
    NonFiniteMomentError,
    _dyadic_cells,
    _split,
    build_step_approximation,
    certify_error,
    check_finite_moment,
    sensitize,
    wave_centre,
)
from sensapprox.funcspace import StepFunction
from sensapprox.measures import BorelMeasure, MeasureSpecError
from sensapprox.norms import mc_norm, wave_norm_bound
from sensapprox.parsing import parse_measure, parse_target, target_evaluator

from paper_route import (
    IntervalUnion,
    TruncationCapError,
    approximate_borel_set,
    closed_interval,
    measure_of,
    open_interval,
    point,
    truncate_union,
)


def measure(text):
    return BorelMeasure.from_spec(parse_measure(text))


def request(target, mu, p=2, eps="1/10", M=10):
    return ApproxRequest(
        target=parse_target(target), mu=measure(mu), p=p,
        eps=Fraction(eps), M=Fraction(M),
    )


def certifications(monkeypatch):
    """Lists that fill, as sensitize runs, with each certified distance of a
    phi0 (value plus bound) and each target_err that phi0 is built for."""
    distances, targets = [], []
    lp_distance = approx.norms.lp_distance
    build = approx.build_step_approximation

    def spy(*args, **kwargs):
        est = lp_distance(*args, **kwargs)
        distances.append(est.value + est.absolute_error_bound)
        return est

    def spy_build(req, target_err, centre=0):
        targets.append(target_err)
        return build(req, target_err, centre)
    monkeypatch.setattr(approx.norms, "lp_distance", spy)
    monkeypatch.setattr(approx, "build_step_approximation", spy_build)
    return distances, targets


UNIFORM = measure("uniform(0,1)")
NORMAL = measure("normal(0,1)")
MIX = measure("mix(0.5*atom(0), 0.5*uniform(0,1))")


class TestApproximateBorelSet:
    def test_closed_interval_enlarged(self):
        B = IntervalUnion([closed_interval(Fraction(1, 4), Fraction(3, 4))])
        V = approximate_borel_set(B, UNIFORM, p=1, tol=0.1)
        assert V.superset_of(B)
        assert V.all_open()
        assert measure_of(UNIFORM, V.difference(B)) < 0.1

    def test_open_set_unchanged(self):
        B = IntervalUnion([open_interval(0, 1), open_interval(2, 3)])
        V = approximate_borel_set(B, UNIFORM, p=2, tol=0.01)
        assert V == B

    def test_singleton_atom(self):
        B = IntervalUnion([point(0)])
        V = approximate_borel_set(B, MIX, p=1, tol=0.05)
        assert V.superset_of(B)
        assert V.all_open()
        # the atom itself belongs to B, so only continuous mass is added
        assert measure_of(MIX, V.difference(B)) < 0.05

    def test_threshold_uses_tol_power_p(self):
        B = IntervalUnion([closed_interval(Fraction(1, 4), Fraction(3, 4))])
        V = approximate_borel_set(B, UNIFORM, p=2, tol=0.1)
        assert measure_of(UNIFORM, V.difference(B)) < 0.1 ** 2

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            approximate_borel_set(IntervalUnion(), UNIFORM, p=1, tol=0)


def dyadic_intervals(n):
    """(1/2, 1), (1/4, 1/2), ... — uniform masses 1/2, 1/4, ..."""
    return [
        open_interval(Fraction(1, 2 ** (k + 1)), Fraction(1, 2 ** k))
        for k in range(n)
    ]


class TestTruncateUnion:
    def test_dyadic_prefix(self):
        ivs = dyadic_intervals(40)
        prefix = truncate_union(ivs, Fraction(1), UNIFORM, p=1, tol=0.3, cap=100)
        # tail after N pieces is 2^-N (endpoints are uniform-null);
        # smallest N with 2^-N < 0.3 is 2
        assert len(prefix) == 2
        assert prefix == ivs[:2]

    def test_single_piece_suffices(self):
        ivs = dyadic_intervals(40)
        prefix = truncate_union(ivs, Fraction(1), UNIFORM, p=1, tol=0.6, cap=100)
        assert len(prefix) == 1

    def test_empty_prefix_admissible(self):
        ivs = dyadic_intervals(5)
        mass = measure_of(UNIFORM, IntervalUnion(ivs))
        prefix = truncate_union(ivs, mass, UNIFORM, p=1, tol=1.5, cap=100)
        assert prefix == []

    def test_cap_exceeded(self):
        ivs = dyadic_intervals(40)
        with pytest.raises(TruncationCapError) as e:
            truncate_union(ivs, Fraction(1), UNIFORM, p=1, tol=1e-4, cap=3)
        assert e.value.achieved_tail > 1e-4

    def test_enumeration_exhausted(self):
        ivs = dyadic_intervals(4)
        with pytest.raises(TruncationCapError):
            truncate_union(ivs, Fraction(1), UNIFORM, p=1, tol=0.01, cap=100)


class TestFiniteMomentCheck:
    def test_polynomial_passes(self):
        check_finite_moment(request("x^2", "normal(0,1)"))

    def test_gaussian_blowup_flagged(self):
        with pytest.raises(NonFiniteMomentError):
            check_finite_moment(request("exp(x^2)", "normal(0,1)"))

    @pytest.mark.parametrize("target, mu", [
        ("exp(x^2/3)", "normal(0,1)"),
        ("exp(0.6*x)", "exponential(1)"),
    ])
    def test_a_moment_infinite_only_in_the_tails_is_refused(self, target, mu):
        # the p = 2 moments are the integrals of e^(x^2/6) / sqrt(2 pi) and
        # of e^(0.2 x), both infinite; phi0 follows X out to the spans, so
        # the certification sees only the small residual there, and the
        # moment check is the one test of the tails of |X|^p
        with pytest.raises(NonFiniteMomentError):
            sensitize(request(target, mu, p=2, eps="1/10", M=0))


class TestBuildStepApproximation:
    def test_indicator_exact(self):
        req = request("if(x<0.5, if(x>0, 1, 0), 0)", "uniform(0,1)",
                      p=1, eps="1/2", M=3)
        phi0, est = build_step_approximation(req, float(req.eps) / 2)
        assert phi0.terms == ((1, 0, Fraction(1, 2)),)
        assert est.value + est.absolute_error_bound < 0.25

    def test_identity_staircase(self):
        req = request("x", "uniform(0,1)", p=2, eps="1/5", M=1)
        phi0, est = build_step_approximation(req, float(req.eps) / 2)
        assert est.value + est.absolute_error_bound < 0.1
        # staircase values track the target at cell midpoints
        assert phi0.eval(Fraction(1, 64)) == pytest.approx(
            Fraction(1, 64), abs=0.1)

    def test_quadratic_normal_mc_agreement(self):
        req = request("x^2", "normal(0,1)", p=2, eps="1/10", M=10)
        phi0, est = build_step_approximation(req, float(req.eps) / 2)
        f = target_evaluator(req.target)
        mc = mc_norm(lambda xs: f(xs) - phi0.eval_arr(xs), req.mu,
                     p=2, n=10**6, seed=9)
        assert est.value + est.absolute_error_bound < 0.05
        assert mc.value - mc.absolute_error_bound <= est.value + est.absolute_error_bound

    def test_atom_pinned_exactly(self):
        req = request("x^2 + 1", "mix(0.5*atom(0), 0.5*uniform(0,1))",
                      p=1, eps="1/4", M=2)
        phi0, _ = build_step_approximation(req, float(req.eps) / 2)
        assert phi0.eval(0) == 1

    @pytest.mark.parametrize("target, mu, pin, rows", [
        # the pin's value is 0, at a point inside a nonzero cell
        ("x-0.3", "mix(0.5*atom(0.3), 0.5*uniform(0,1))", (Fraction(3, 10), 0), 3),
        ("x^2", "mix(0.3*atom(0.5), 0.7*normal(0,1))", (Fraction(1, 2), Fraction(1, 4)), 35),
        # the atom sits on a threshold, the end of two rows, where phi0 is 0
        ("if(x < 1/2, if(x > 0, 1, if(x > -1, 2, 0)), 0)",
         "mix(0.5*atom(0), 0.5*uniform(-1,1))", (Fraction(0), 2), 2),
    ])
    def test_atom_pin_is_one_exception_and_no_row(self, target, mu, pin, rows):
        req = request(target, mu, p=1, eps="1/10", M=1)
        phi0, _ = build_step_approximation(req, float(req.eps) / 2)
        assert phi0.exceptions == (pin,)
        assert phi0.eval(pin[0]) == pin[1]
        assert StepFunction(terms=phi0.terms).eval(pin[0]) != pin[1]
        assert len(phi0.terms) == rows

    def test_failed_certification_refines_again(self, monkeypatch):
        # the first refinement run meets its float estimate, but the
        # certified distance of its phi0 is not below target_err, all of
        # eps that the wave and the quadrature leave, so the grid route
        # halves its share and refines again
        distances, targets = certifications(monkeypatch)
        req = request("if(2*x<0.6,1,-1)", "mix(0.5*atom(0.3), 0.5*uniform(0,1))",
                      p=1, eps="1/100", M=0)
        cert = sensitize(req)
        (target_err,) = targets
        assert float(req.eps) / 2 < target_err < float(req.eps)
        assert len(distances) >= 2
        assert distances[0] >= target_err
        assert distances[-1] < target_err
        assert cert.error_bound < float(req.eps)

    def test_refinement_spends_its_budget(self, monkeypatch):
        # the refinement aims at 63/64 of target_err, and its estimate
        # tracks the certified distance closely, so phi0 is certified within
        # 5 % below target_err
        distances, targets = certifications(monkeypatch)
        sensitize(request("x^2", "normal(0,1)", p=2, eps="1/50", M=0))
        (target_err,) = targets
        assert 0.95 * target_err <= distances[-1] < target_err

    @pytest.mark.parametrize("target, mu, p, eps, c, rows, zeros, row", [
        # one row per constant piece that meets the spans, its ends the
        # exact thresholds, and its value the target's less c, the multiple
        # of the value quantum nearest scale / 2; a zero piece is a row at -c
        ("if(x<0.3,1,0)", "uniform(0,1)", 1, "1/10", Fraction(13, 512),
         2, 1, (1, 0, Fraction(3, 10))),
        ("if(x<0.3,1,if(x<2/3,-2,0))", "normal(0,1)", 2, "1/100", Fraction(5, 2048),
         3, 1, (-2, Fraction(3, 10), Fraction(2, 3))),
        ("if(x>1/3, if(x<0.7,1,0), 0)", "normal(0,1)", 2, "1/100", Fraction(5, 2048),
         3, 2, (1, Fraction(1, 3), Fraction(7, 10))),
        # a kinked target: its constant middle piece is one row, and the
        # coarsening merges each linear piece into one row too
        ("if(x <= 0.25, x, if(x >= 0.75, 1 - x, 0.5))", "uniform(0,1)", 2, "1/10",
         Fraction(13, 512), 3, 0, (Fraction(1, 2), Fraction(1, 4), Fraction(3, 4))),
        # a threshold past the float range is no cell end
        ("if(x < sqrt(2)^1000000, 1, 0)", "uniform(0,1)", 1, "1/10", Fraction(13, 512),
         1, 0, (1, 0, 1)),
    ], ids=["indicator", "nested", "window", "kinked", "overflowing"])
    def test_if_thresholds_are_exact_row_ends(self, target, mu, p, eps, c, rows, zeros, row):
        terms = sensitize(request(target, mu, p=p, eps=eps, M=0)).approximant.phi0.terms
        assert len(terms) == rows
        value, lo, hi = row
        assert (value - c, lo, hi) in terms
        assert sum(v == -c for v, _, _ in terms) == zeros

    @pytest.mark.parametrize("mu", [
        "uniform(0,1)",
        "uniform(0.3,1)",
        "normal(0,1)",
        "exponential(2)",
        "pwd(breaks(0,0.5,1), poly(0,4), poly(4,-4))",
        "mix(0.5*atom(0.3), 0.5*uniform(0,1))",
        "mix(2*normal(1,2), mass=2)",
    ])
    @pytest.mark.parametrize("p", [1, 2])
    def test_grid_route_cells_are_dyadic_with_short_values(self, mu, p):
        req = request("sin(3*x) + x^2", mu, p=p, eps="1/20")
        phi0, est = build_step_approximation(req, float(req.eps) / 2)
        target_err = 1 / 40
        assert est.value + est.absolute_error_bound < target_err
        # an atom pin is an exception, and leaves every cell dyadic
        assert {pt for pt, _ in phi0.exceptions} <= {loc for loc, _ in req.mu.atoms}
        root = float(req.mu.total_mass) ** (1 / p)
        for (v, lo, hi), nxt in zip(phi0.terms, phi0.terms[1:] + ((0, math.inf, 0),)):
            assert lo < hi <= nxt[1]  # sorted and disjoint
            for q in {v, lo, hi}:
                d = Fraction(q).denominator
                assert d & (d - 1) == 0, (q, lo, hi)
            # a multiple of 2^-k, k the least with 2^-k mass^(1/p) <= target_err / 64
            assert Fraction(v).denominator * target_err < 128 * root
        # next to no mass lies where one draw could fail a Monte Carlo check
        # of 1000 draws on its own: |target - phi0|^p > 1000 target_err^p
        ends = [e for _, kind in req.mu.parts for span in kind.spans(1e-12) for e in span]
        xs, dx = np.linspace(min(ends), max(ends), 200_001, retstep=True)
        xs = xs[:-1] + dx / math.pi  # off the cell ends, where phi0 is 0
        z = np.abs(target_evaluator(req.target)(xs) - phi0.eval_arr(xs)) ** p
        density = sum(float(w) * kind.pdf_arr(xs) for w, kind in req.mu.parts)
        outlying = np.sum(density * z * (z > 1000 * target_err**p)) * dx
        assert outlying < 1e-3 * target_err**p

    def test_a_gaps_ends_are_cell_ends(self):
        # the target is undefined in the gap (0.3, 0.31) between the parts;
        # both ends of the gap are cell ends, so a row ends at the float
        # 0.3 and the next row starts at the float 0.31
        cert = sensitize(request("sqrt((x-0.3)*(x-0.31))",
                                    "mix(0.5*uniform(0,0.3), 0.5*uniform(0.31,1))",
                                    p=1, eps="1/10", M=0))
        terms = cert.approximant.phi0.terms
        i = [hi for _, _, hi in terms].index(Fraction(0.3))
        assert terms[i + 1][1] == Fraction(0.31)

    @pytest.mark.parametrize("target, mu", [
        ("1 + sin(x)", "normal(0,1)"),
        ("1 + sin(x)", "exponential(1)"),
        ("sqrt((x-0.3)*(x-0.31))", "mix(0.5*uniform(0,0.3), 0.5*uniform(0.31,1))"),
        ("1 + sin(x)", "mix(0.5*normal(0,1), 0.5*normal(100,1))"),
        ("1 + sin(x)", "pwd(breaks(0,0.4,0.6,1), poly(1.25), poly(0), poly(1.25))"),
    ])
    def test_rows_lie_in_the_pieces_and_reach_the_hulls_ends(self, target, mu):
        # every piece end is a cell end, so each row lies in one piece, and
        # a target nonzero at the hull's ends has rows out to them: the
        # spans that the certification integrates, not the dyadic grid
        req = request(target, mu, p=1, eps="1/10")
        phi0, _ = build_step_approximation(req, float(req.eps) / 2)
        pieces = req.mu.spans(approx.norms.TAILS[-1])
        for _, lo, hi in phi0.terms:
            assert any(a <= lo and hi <= b for a, b in pieces), (lo, hi, pieces)
        assert (phi0.terms[0][1], phi0.terms[-1][2]) == (pieces[0][0], pieces[-1][1])

    @pytest.mark.parametrize("n", [1, 3, 16, 4096])
    @pytest.mark.parametrize("lo, hi", [
        (Fraction(-7, 3), Fraction(5, 8)),
        (Fraction(-22, 7), Fraction(-1, 9)),
        (Fraction(-1), Fraction(3, 10)),
    ])
    def test_grid_cells_and_midpoints_are_exact(self, lo, hi, n):
        # the grid route's first cells share one power-of-two width that
        # divides every end, and a split puts the exact midpoint between
        # the halves of each marked cell
        ends = _dyadic_cells(float(lo), float(hi), n)
        width = Fraction(ends[1]) - Fraction(ends[0])
        assert width.numerator == 1 or width.denominator == 1
        assert (width.numerator & (width.numerator - 1)) == 0
        assert (width.denominator & (width.denominator - 1)) == 0
        assert width / 2 < (hi - lo) / n <= width
        assert ends[0] <= lo < ends[0] + width
        assert ends[-1] - width < hi <= ends[-1]
        assert all(Fraction(e) / width == k + Fraction(ends[0]) / width
                   for k, e in enumerate(ends.tolist()))
        cells_lo, cells_hi = ends[:-1], ends[1:]
        marked = np.arange(len(cells_lo)) % 2 == 0
        lo2, hi2, counts = _split(cells_lo, cells_hi, marked)
        assert counts.tolist() == (1 + marked).tolist()
        assert np.array_equal(lo2[1:], hi2[:-1])  # still a tiling
        assert (lo2[0], hi2[-1]) == (ends[0], ends[-1])
        halves = iter(zip(lo2.tolist(), hi2.tolist()))
        for a, b, split in zip(cells_lo.tolist(), cells_hi.tolist(), marked):
            if not split:
                assert next(halves) == (a, b)
                continue
            (a1, m1), (m2, b2) = next(halves), next(halves)
            assert (a1, m2, b2) == (a, m1, b)
            assert Fraction(m1) == (Fraction(a) + Fraction(b)) / 2


class TestCertifyError:
    def test_chain(self):
        assert certify_error(0.04, Fraction(1, 20), 0.6) == pytest.approx(0.07)

    def test_offset_is_added_and_the_sum_rounded_up(self):
        offset = Fraction(1, 3 * 2**40)
        bound = certify_error(0.1, Fraction(1, 3), 0.7, offset)
        exact = Fraction(0.1) + Fraction(1, 3) * Fraction(0.7) + offset
        assert exact <= Fraction(bound) and float(exact) == pytest.approx(bound, rel=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            certify_error(-0.1, Fraction(1, 2), 0.5)


class TestCoarsening:
    """Once a refinement run meets its goal, build_step_approximation
    merges touching cells while its estimate stays within the goal, and
    certifies the coarser phi0 with the search's cell ends as knots."""

    def test_coarsening_evaluates_no_new_point(self, monkeypatch):
        # the target's points, each tagged with whether the certification
        # asked for it; the coarsening's call is the last one before the
        # certification, and reads only points that the search read
        calls, certifying = [], [False]
        evaluator, lp_distance = approx.target_evaluator, approx.norms.lp_distance

        def spy_evaluator(target):
            f = evaluator(target)

            def spy(xs, out=None):
                calls.append((certifying[0], np.array(xs, dtype=float).ravel()))
                return f(xs, out)
            return spy

        def spy_distance(*args, **kwargs):
            certifying[0] = True
            try:
                return lp_distance(*args, **kwargs)
            finally:
                certifying[0] = False
        monkeypatch.setattr(approx, "target_evaluator", spy_evaluator)
        monkeypatch.setattr(approx.norms, "lp_distance", spy_distance)
        phi0, _ = build_step_approximation(request("x", "uniform(0,1)", p=2, eps="1/10"), 0.08)
        assert len(phi0.terms) < 16  # cells were merged
        search = [xs for c, xs in calls if not c]
        # one run: the search, the coarsening, then the certification
        assert len(calls) > len(search) and all(c for c, _ in calls[len(search):])
        *before, coarsening = search
        assert np.isin(coarsening, np.concatenate(before)).all()

    def test_the_search_cells_are_knots_of_the_certification(self, monkeypatch):
        # the rows of a coarse phi0 miss some of the first cells' ends at
        # multiples of 1/16, which the certification still integrates at
        knots = []
        lp_distance = approx.norms.lp_distance

        def spy(*args, **kwargs):
            knots.append(kwargs["knots"])
            return lp_distance(*args, **kwargs)
        monkeypatch.setattr(approx.norms, "lp_distance", spy)
        phi0, _ = build_step_approximation(request("x", "uniform(0,1)", p=2, eps="1/10"), 0.08)
        first = np.arange(17) / 16
        assert not np.isin(first, phi0.endpoint_floats()).all()
        assert np.isin(first, knots[-1]).all()

    def test_no_merge_crosses_a_threshold(self):
        # the threshold 1/2 of an if() whose two branches agree is a row
        # end, where the same target without the test has a row across it
        def rows(target):
            return sensitize(request(target, "uniform(0,1)", p=2, eps="1/10", M=9)
                             ).approximant.phi0.terms
        assert any(lo < 0.5 < hi for _, lo, hi in rows("x"))
        assert Fraction(1, 2) in [hi for _, _, hi in rows("if(x<0.5,x,x)")]

    def test_no_merge_crosses_a_gap(self):
        # merged across the gap (1, 1.0625), the rows on its two sides
        # would take one value
        terms = sensitize(request("x", "mix(0.5*uniform(0,1), 0.5*uniform(1.0625,2))",
                                  p=1, eps="1/4", M=0)).approximant.phi0.terms
        i = [hi for _, _, hi in terms].index(1)
        assert terms[i + 1][1] == Fraction(1.0625)
        assert terms[i][0] != terms[i + 1][0]

    def test_an_underflowing_goal_is_not_coarsened(self):
        # at p = 1000 the goal ((63/64) target_err)^p is 0, and every merge
        # would cost 0 in the estimate: the rows are the search's
        cert = sensitize(request("0.9*sin(100*x)", "uniform(0,1)", p=1000, eps="1/10", M=0))
        assert len(cert.approximant.phi0.terms) == 121


class TestSensitize:
    def test_zero_target(self):
        cert = sensitize(request("0", "uniform(0,1)", p=1, eps="1", M=0))
        Y = cert.approximant
        assert Y.wave.b == 2
        assert Y.min_abs_slope() == 1
        # c = scale / 2 = 1/4 sits on the value quantum: phi0 is one row at
        # -c, and ||X - Y||_1 = ||1/4 - wave / 2||_1 = 1/8 exactly
        assert Y.phi0.terms == ((Fraction(-1, 4), 0, 1),)
        assert 1 / 8 <= cert.error_bound < 1.0

    def test_indicator_target(self):
        cert = sensitize(request("if(x<0.5, if(x>0, 1, 0), 0)",
                                 "uniform(0,1)", p=1, eps="1/2", M=3))
        Y = cert.approximant
        assert Y.wave.b == 16
        assert Y.min_abs_slope() == 4
        # c = scale / 2 = 1/8
        assert Y.phi0.terms == ((Fraction(7, 8), 0, Fraction(1, 2)),
                                (Fraction(-1, 8), Fraction(1, 2), 1))

    def test_the_centre_offset_is_paid(self):
        # phi0 is exactly X - c on both pieces, and b = 20 half-periods
        # tile [0, 1], so X - Y = c - scale * wave with the wave uniform on
        # [0, 1]: ||X - Y||_1 = scale (g^2 + (1 - g)^2) / 2, g = c / scale.
        # c = 13/512 misses scale / 2 = 1/40, and the bound must pay
        # |c - scale / 2| on top of scale ||wave - 1/2||_1 = scale / 4
        cert = sensitize(request("if(x<0.3,1,0)", "uniform(0,1)", p=1, eps="1/10", M=0))
        Y = cert.approximant
        c = -Y.phi0.eval(Fraction(1, 2))
        assert c == Fraction(13, 512) and Y.wave.b == 20
        assert Y.phi0.eval(Fraction(1, 10)) == 1 - c
        g = c / Y.scale
        exact = Y.scale * (g**2 + (1 - g)**2) / 2
        assert float(exact) == pytest.approx(0.0125031, abs=1e-7)
        assert Fraction(cert.error_bound) >= exact

    def test_a_small_mass_pays_the_offset_at_its_root(self):
        # at mass 1/100 the value quantum, 1/128, passes scale / 2 = 1/400,
        # so c = 0; the offset is ||scale / 2||_1 = 1/40000, not the
        # scale / 2 = 1/400 that R = 1 would charge
        req = request("x^2", "mix(0.01*uniform(0,1), mass=0.01)", p=1, eps="1/100", M=0)
        cert = sensitize(req)
        Y = cert.approximant
        assert Y.scale == Fraction(1, 200)
        headroom = (float(req.eps) - req.quadrature_tolerance
                    - float(Y.scale) * wave_norm_bound(Y.wave, req.mu, req.p))
        c, offset = wave_centre(req, Y.scale, headroom)
        assert c == 0
        assert float(offset) == pytest.approx(1 / 40000, rel=1e-12)
        assert cert.error_bound < float(req.eps)

    def test_quadratic_normal(self):
        req = request("x^2", "normal(0,1)", p=2, eps="1/10", M=10)
        cert = sensitize(req)
        Y = cert.approximant
        assert Y.wave.b == 220
        assert Y.min_abs_slope() == 11
        assert cert.error_bound < 0.1
        # independent oracle: Monte Carlo on the finished approximant
        f = target_evaluator(req.target)
        mc = mc_norm(lambda xs: f(xs) - Y.eval_arr(xs), req.mu,
                     p=2, n=10**6, seed=1)
        assert mc.value + mc.absolute_error_bound < 0.1

    def test_sup_bound_holds(self):
        Y = sensitize(request("x", "uniform(0,1)", p=1, eps="1/5", M=2)).approximant
        xs = np.random.default_rng(0).uniform(-5, 5, 10**5)
        assert np.all(np.abs(Y.eval_arr(xs)) <= float(Y.sup_bound()) + 1e-12)

    def test_non_probability_measure(self):
        req = request("x", "mix(4*uniform(0,1), mass=4)", p=2, eps="1/2", M=1)
        cert = sensitize(req)
        # mass^(1/p) = 2, so the wave is shrunk: scale <= eps/(2*2)
        assert cert.approximant.scale <= Fraction(1, 8)
        assert cert.approximant.min_abs_slope() >= 2
        assert cert.error_bound < 0.5

    def test_moment_hypothesis_rejected(self):
        with pytest.raises(NonFiniteMomentError):
            sensitize(request("exp(x^2)", "normal(0,1)"))

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            request("x", "uniform(0,1)", p=0.5)
        with pytest.raises(ValueError):
            request("x", "uniform(0,1)", p=math.inf)
        with pytest.raises(ValueError, match="^request p has no finite float$"):
            request("x", "uniform(0,1)", p=10**400)

    @pytest.mark.parametrize("p,want", [("3/2", 1.5), ("2", 2.0), (Fraction(5, 4), 1.25),
                                        ("1.5", 1.5)])
    def test_p_is_read_as_eps_is(self, p, want):
        req = request("x", "uniform(0,1)", p=p)
        assert type(req.p) is float and req.p == want

    @pytest.mark.parametrize("p", ["1e400", str(10**400), Fraction(10**400, 3)])
    def test_p_with_no_float_is_refused_by_name(self, p):
        with pytest.raises(ValueError, match="^request p has no finite float$") as info:
            request("x", "uniform(0,1)", p=p)
        assert not isinstance(info.value, MeasureSpecError)

    @pytest.mark.parametrize("name", ["p", "eps", "M"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, "3/x"])
    def test_a_field_that_is_no_finite_number_is_named(self, name, value):
        fields = {"p": 2, "eps": "1/10", "M": 1, name: value}
        with pytest.raises(ValueError, match=f"^request {name}: "):
            ApproxRequest(target=parse_target("x"), mu=UNIFORM, **fields)

    def test_eps_with_no_float_is_a_plain_value_error(self):
        # eps is a request field, no measure parameter
        with pytest.raises(ValueError, match="request eps has no finite float") as info:
            request("x", "uniform(0,1)", eps=10**400)
        assert not isinstance(info.value, MeasureSpecError)

    @pytest.mark.parametrize("eps,b", [("2/5", 10), ("1/5", 20),
                                       ("1/10", 40), ("1/20", 80)])
    def test_frequency_scaling(self, eps, b):
        Y = sensitize(request("x^2", "normal(0,1)", p=2, eps=eps, M=1)).approximant
        assert Y.wave.b == b

    def test_slope_minimality_property(self):
        # min |slope| equals scale*b exactly and clears M+1
        for M in (0, 1, 7):
            Y = sensitize(request("x", "uniform(0,1)", p=1,
                                  eps="1/4", M=M)).approximant
            assert Y.min_abs_slope() == Y.scale * Y.wave.b
            assert Y.min_abs_slope() >= M + 1
