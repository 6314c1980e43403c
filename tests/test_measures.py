import itertools
import math
import warnings
from fractions import Fraction
from statistics import NormalDist

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sensapprox import norms
from sensapprox.measures import (_AS241_CENTRAL, _AS241_FAR, _AS241_NEAR, _BELOW_ONE,
                                 _UNDECIDED, BLOCK, SCRATCH_ROWS, AtomKind, BorelMeasure,
                                 Exponential, MeasureSpecError, Normal, PiecewisePoly, Uniform,
                                 _ndtri_sorted, _negative_point)
from sensapprox.parsing import parse_measure

from mc_reference import from_uniforms, stratified_uniforms
from paper_route import Interval, IntervalUnion, measure_of, open_interval


def measure(text):
    return BorelMeasure.from_spec(parse_measure(text))


UNIFORM = measure("uniform(0,1)")
NORMAL = measure("normal(0,1)")
MIX = measure("mix(0.5*atom(0), 0.5*uniform(0,1))")


# every measure kind, mixtures of them and a measure of mass 2
SAMPLED = [
    "uniform(-1,3)",
    "normal(1,2)",
    "exponential(3)",
    "atom(3)",
    "pwd(breaks(0,1,2), poly(0,1), poly(2,-1))",
    "pwd(breaks(0,1), poly(0,0,3))",
    "mix(0.5*atom(0), 0.5*uniform(0,1))",
    "mix(0.5*normal(0,1), 0.5*uniform(0,1))",
    "mix(0.5*exponential(1), 0.5*normal(0,1))",
    "mix(0.3*atom(2), 0.2*atom(-1), 0.5*normal(0,1))",
    "mix(2*uniform(0,1), mass=2)",
]


def union(*ivs):
    return IntervalUnion(ivs)


class TestKindParameters:
    @pytest.mark.parametrize("build, spec, message", [
        (lambda: Uniform(1, 0), "uniform(1,0)", "uniform requires a < b, got (1, 0)"),
        (lambda: Normal(0, 0), "normal(0,0)", "normal requires stddev > 0, got 0"),
        (lambda: Exponential(0), "exponential(0)", "exponential requires rate > 0, got 0"),
        (lambda: PiecewisePoly((1, 0), ((1,),)), "pwd(breaks(1,0), poly(1))",
         "pwd breakpoints must be strictly increasing"),
        (lambda: PiecewisePoly((0, 1), ((1,), (1,))), "pwd(breaks(0,1), poly(1), poly(1))",
         "pwd needs 1 poly pieces, got 2"),
        # a parameter whose float is not finite, or not positive where
        # the float methods divide by it
        (lambda: Uniform(1, 1 + Fraction(1, 10**20)), "uniform(1,1.00000000000000000001)",
         "uniform width b - a has no positive finite float"),
        (lambda: Normal(10**400, 1), f"normal(1{'0' * 400},1)",
         "normal mean has no finite float"),
        (lambda: PiecewisePoly((0, 10**400), ((Fraction(1, 10**400),),)),
         f"pwd(breaks(0,1{'0' * 400}), poly(0.{'0' * 399}1))", "pwd breakpoint has no finite float"),
    ], ids=["uniform", "normal", "exponential", "pwd-breaks", "pwd-pieces", "uniform-width",
            "normal-mean", "pwd-breakpoint"])
    def test_each_kind_checks_its_own_parameters(self, build, spec, message):
        # a library caller gets the error that the grammar gives
        with pytest.raises(MeasureSpecError) as built:
            build()
        with pytest.raises(MeasureSpecError) as parsed:
            parse_measure(spec)
        assert str(built.value) == str(parsed.value) == message

    @pytest.mark.parametrize("build, spec, message", [
        (lambda: BorelMeasure(parts=[(-1, Uniform(0, 2)), (2, Uniform(0, 1))]),
         "mix(-1*uniform(0,2), 2*uniform(0,1))", "negative weight -1"),
        (lambda: BorelMeasure(atoms=[(0, Fraction(-1, 2))], parts=[(Fraction(3, 2), Uniform(0, 1))]),
         "mix(-0.5*atom(0), 1.5*uniform(0,1))", "negative weight -1/2"),
        (lambda: BorelMeasure(parts=[(1, Uniform(0, 1))], total_mass=0),
         "mix(1*uniform(0,1), mass=0)", "declared mass must be positive, got 0"),
        (lambda: BorelMeasure(atoms=[(0, Fraction(1, 2))], parts=[(Fraction(1, 4), Uniform(0, 1))],
                              total_mass=1),
         "mix(0.5*atom(0), 0.25*uniform(0,1), mass=1)", "weights sum to 3/4, declared mass is 1"),
        (lambda: BorelMeasure(parts=[(0, Uniform(0, 1))]),
         "mix(0*uniform(0,1))", "total mass must be positive"),
        (lambda: BorelMeasure(parts=[(10**400, Uniform(0, 1))], total_mass=10**400),
         f"mix(1{'0' * 400}*uniform(0,1), mass=1{'0' * 400})", "mix weight has no finite float"),
        (lambda: BorelMeasure(atoms=[(0, 10**308)], parts=[(10**308, Uniform(0, 1))]),
         f"mix(1{'0' * 308}*atom(0), 1{'0' * 308}*uniform(0,1))",
         "mix total mass has no finite float"),
    ], ids=["negative-part", "negative-atom", "declared-mass", "mass-mismatch", "total-mass",
            "weight-float", "total-mass-float"])
    def test_the_mixture_checks_its_weights_and_mass(self, build, spec, message):
        # a library caller gets the error that the grammar gives; a negative
        # part used to build, with a density negative on (1, 2)
        with pytest.raises(MeasureSpecError) as built:
            build()
        with pytest.raises(MeasureSpecError) as parsed:
            BorelMeasure.from_spec(parse_measure(spec))
        assert str(built.value) == str(parsed.value) == message

    @pytest.mark.parametrize("text", SAMPLED)
    def test_spans_are_sorted_and_disjoint(self, text):
        for _, kind in measure(text).parts:
            for tail in (1e-6, 1e-12):
                ends = [e for span in kind.spans(tail) for e in span]
                assert ends and all(a < b for a, b in zip(ends, ends[1:]))


class TestMeasureOf:
    def test_uniform_interval_length(self):
        u = union(open_interval(Fraction(1, 4), Fraction(3, 4)))
        assert measure_of(UNIFORM, u) == 0.5

    def test_atom_captured_by_closed_endpoint(self):
        u = union(Interval(-1, False, 0, True))
        assert measure_of(MIX, u) == 0.5

    def test_atom_excluded_by_open_endpoint(self):
        u = union(Interval(-1, False, 0, False))
        assert measure_of(MIX, u) == 0.0

    def test_normal_central_interval(self):
        # oracle: standard normal CDF (mpmath)
        a, b = -1.959964, 1.959964
        u = union(open_interval(Fraction(repr(a)), Fraction(repr(b))))
        with mpmath.workdps(30):
            expected = float(mpmath.ncdf(b) - mpmath.ncdf(a))
        assert measure_of(NORMAL, u) == pytest.approx(expected, abs=1e-13)
        assert measure_of(NORMAL, u) == pytest.approx(0.95, abs=1e-6)

    def test_exponential_closed_form(self):
        mu = measure("exponential(2)")
        u = union(open_interval(0, 1))
        assert measure_of(mu, u) == pytest.approx(1 - math.exp(-2), abs=1e-14)

    def test_pwd_exact(self):
        mu = measure("pwd(breaks(0,1), poly(0,2))")  # density 2x on (0,1)
        u = union(open_interval(0, Fraction(1, 2)))
        assert measure_of(mu, u) == 0.25

    def test_whole_line_and_empty(self):
        whole = union(Interval(-math.inf, False, math.inf, False))
        assert measure_of(MIX, whole) == pytest.approx(1.0, abs=1e-12)
        assert measure_of(MIX, IntervalUnion()) == 0.0


class TestCdf:
    def test_uniform_cdf(self):
        assert UNIFORM.cdf_arr(0.3) == pytest.approx(0.3, abs=1e-15)

    def test_cdf_jump_equals_atom_mass(self):
        below = MIX.cdf_arr(-1e-12)
        at = MIX.cdf_arr(0.0)
        assert at - below == pytest.approx(0.5, abs=1e-9)


class TestSample:
    def test_uniform_range_and_reproducibility(self):
        xs = UNIFORM.sample(4, seed=7)
        assert np.all((xs > 0) & (xs < 1))
        assert np.array_equal(xs, UNIFORM.sample(4, seed=7))

    def test_degenerate_atom(self):
        mu = measure("atom(3)")
        assert np.array_equal(mu.sample(3, seed=1), [3.0, 3.0, 3.0])

    def test_clt_mean_bound(self):
        n = 10**6
        xs = NORMAL.sample(n, seed=42)
        # 4 sigma of the sample mean of a standard normal at n = 10^6
        assert abs(xs.mean()) < 4.0 * (1.0 / 1000.0)

    def test_finite_mass_samples_the_normalized_measure(self):
        mu = measure("mix(2*uniform(0,1), mass=2)")
        assert np.array_equal(mu.sample(1000, seed=3), UNIFORM.sample(1000, seed=3))

    @pytest.mark.parametrize("name,mu", [
        ("uniform", UNIFORM), ("normal", NORMAL), ("mix", MIX),
        ("exponential", measure("exponential(1)")),
        ("pwd", measure("pwd(breaks(0,1), poly(0,2))")),
    ])
    def test_dkw_band(self, name, mu):
        n = 10**6
        alpha = 1e-3
        band = math.sqrt(math.log(2.0 / alpha) / (2.0 * n))
        xs = np.sort(mu.sample(n, seed=11))
        uniq, first = np.unique(xs, return_index=True)
        counts = np.diff(np.append(first, n))
        ecdf_at = (first + counts) / n  # F_n(x) at each distinct value
        ecdf_before = first / n  # F_n(x-)
        cdf_at = mu.cdf_arr(uniq)
        cdf_before = mu.cdf_arr(uniq - 1e-9)  # left limit (atoms are isolated)
        d = max(
            np.max(np.abs(ecdf_at - cdf_at)),
            np.max(np.abs(ecdf_before - cdf_before)),
        )
        assert d <= band

    @pytest.mark.parametrize("text", [
        "uniform(-1,3)",
        "normal(1,2)",
        "exponential(3)",
        "pwd(breaks(0,1), poly(0,2))",  # zero density at the left end
        "pwd(breaks(0,1,2), poly(0,1), poly(2,-1))",  # triangular, two cells
        "pwd(breaks(0,1), poly(0,0,3))",  # degree 2: bisection in the cell
    ])
    def test_inv_cdf_round_trip(self, text):
        kind = measure(text).parts[0][1]
        v = np.linspace(0.0, 1.0, 2001)[1:-1]
        x = kind.inv_cdf_arr(v.copy(), np.empty((SCRATCH_ROWS, v.size)))
        assert np.allclose(kind.cdf_arr(x), v, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n", [1000, 1001, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
    def test_uniform_draws_are_the_stratified_uniforms(self, n):
        # one draw to each of the n strata of width 1/n: draw k lies in
        # stratum k
        for seed in (0, 9):
            u = UNIFORM.sample(n, seed)
            assert np.array_equal(u, stratified_uniforms(n, seed))
            assert np.all(np.diff(u) >= 0)
            k = np.arange(n)
            assert np.all((k / n < u) & (u <= (k + 1) / n))

    @pytest.mark.parametrize("n", [1000, 1001, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
    def test_sample_joins_the_blocks(self, n):
        blocks = [blk.copy() for blk in MIX.sample_blocks(n, 5)]
        assert np.array_equal(MIX.sample(n, 5), np.concatenate(blocks))
        # BLOCK draws a block, and the last block what is left
        sizes = [BLOCK] * (n // BLOCK) + [n % BLOCK] * (n % BLOCK > 0)
        assert [blk.size for blk in blocks] == sizes

    @pytest.mark.parametrize("text", SAMPLED)
    def test_blocks_map_the_one_shot_stratified_uniforms(self, text):
        mu = measure(text)
        for n, seed in ((1001, 0), (3 * BLOCK + 7, 9)):
            assert np.array_equal(mu.sample(n, seed),
                                  from_uniforms(mu, stratified_uniforms(n, seed)))

    def test_every_block_is_a_view_of_one_buffer(self):
        blocks = [(blk.size, blk.__array_interface__["data"][0])
                  for blk in MIX.sample_blocks(3 * BLOCK + 1, 5)]
        assert [size for size, _ in blocks] == [BLOCK, BLOCK, BLOCK, 1]
        assert len({address for _, address in blocks}) == 1

    @pytest.mark.parametrize("text", SAMPLED)
    def test_sampling_warns_nothing_under_the_default_error_state(self, text):
        with warnings.catch_warnings(), np.errstate(all="warn", under="ignore"):
            warnings.simplefilter("error")
            for seed in (0, 9):
                measure(text).sample(3 * BLOCK + 11, seed)

    @pytest.mark.parametrize("text", SAMPLED + [
        "pwd(breaks(0,0.5,1), poly(0,4), poly(4,-4))",
        "mix(0.25*pwd(breaks(0,1,2), poly(0,1), poly(2,-1)), 0.5*atom(0.3), 0.25*normal(0,1))",
    ])
    def test_slices_match_mask_and_scatter(self, text):
        mu = measure(text)
        comps = _components(mu)
        # every cumulative weight, each pwd cell's cumulative mass within
        # its part, and their float neighbours, among random uniforms
        cuts = list(itertools.accumulate(w for w, _ in comps))
        before = 0
        for w, kind in comps:
            if isinstance(kind, PiecewisePoly):
                cuts += [before + w * c for c in itertools.accumulate(_cell_masses(kind))]
            before += w
        edges = [x for c in cuts for x in _float_neighbours(float(c)) if 0.0 < x <= 1.0]
        rng = np.random.default_rng(3)
        u = np.sort(np.concatenate([1.0 - rng.random(3 * BLOCK + 5), edges,
                                    [2.0**-53, 2.0**-53, 1.0, 1.0]]))
        assert np.array_equal(from_uniforms(mu, u), _mask_and_scatter_draws(mu, u))
        # each component in turn draws nothing
        upper = np.array([float(c) for c in cuts[:len(comps)]])
        lower = np.concatenate(([0.0], upper[:-1]))
        for lo, hi in zip(lower, upper):
            rest = u[(u <= lo) | (u > hi)]
            assert np.array_equal(from_uniforms(mu, rest), _mask_and_scatter_draws(mu, rest))

    @pytest.mark.parametrize("bad", [
        [0.5, 0.25], [0.1, 0.2, 0.2, 0.15, 0.3], [math.nan], [math.nan, 0.5],
        [0.25, math.nan, 0.5], [0.25, 0.5, math.nan],
    ])
    def test_uniforms_that_are_not_ascending_raise(self, bad):
        with pytest.raises(ValueError, match="ascending"):
            from_uniforms(MIX, np.array(bad))

    @pytest.mark.parametrize("text", ["uniform(0,1)", "atom(3)", "mix(2*uniform(0,1), mass=2)",
                                      "mix(0.5*atom(0), 0.5*uniform(0,1))"])
    def test_uniforms_are_not_written_to(self, text):
        u = np.sort(1.0 - np.random.default_rng(8).random(BLOCK + 9))
        kept = u.copy()
        xs = from_uniforms(measure(text), u)
        assert np.array_equal(u, kept)
        assert from_uniforms(measure(text), u[:0]).shape == (0,)
        # unless they are mapped in place, as sample_blocks maps a block
        assert measure(text)._map_uniforms(u, np.empty((SCRATCH_ROWS, u.size))) is u
        assert np.array_equal(u, xs)

    @pytest.mark.parametrize("text", SAMPLED)
    def test_each_component_draws_one_ascending_block(self, text):
        # one ascending run per component within each block of BLOCK draws
        mu = measure(text)
        components = len(mu.atoms) + len(mu.parts)
        for seed in (0, 9):
            xs = mu.sample(10**5, seed)
            for s in range(0, 10**5, BLOCK):
                assert np.count_nonzero(np.diff(xs[s:s + BLOCK]) < 0) <= components - 1

    def test_blocks_come_atoms_first_then_parts(self):
        xs = measure("mix(0.5*normal(0,1), 0.3*atom(2), 0.2*atom(-1))").sample(10**4, 4)
        low, high = np.count_nonzero(xs == -1.0), np.count_nonzero(xs == 2.0)
        assert np.all(xs[:low] == -1.0) and np.all(xs[low:low + high] == 2.0)
        assert np.all(np.diff(xs[low + high:]) >= 0)

    @pytest.mark.parametrize("text", [
        "uniform(-1,3)",
        "normal(1,2)",
        "exponential(3)",
        "atom(3)",
        "pwd(breaks(0,1), poly(0,2))",
        "pwd(breaks(0,1), poly(0,0,3))",
    ])
    def test_one_component_draws_match_the_general_path(self, text):
        # a component of weight 0, or a pwd cell of mass 0, draws nothing
        # but sends the draws through the split-and-scatter path
        mu = measure(text)
        u = np.append(1.0 - np.random.default_rng(5).random(10**5), [2.0**-53, 1.0])
        u.sort()
        padded = BorelMeasure(atoms=mu.atoms, parts=mu.parts + ((0, Uniform(5, 6)),))
        assert np.array_equal(from_uniforms(mu, u), from_uniforms(padded, u))
        if mu.parts and isinstance(mu.parts[0][1], PiecewisePoly):
            kind = mu.parts[0][1]
            cell = PiecewisePoly(kind.breaks + (kind.breaks[-1] + 1,), kind.coeffs + ((0,),))
            scratch = np.empty((SCRATCH_ROWS, u.size - 1))
            assert np.array_equal(kind.inv_cdf_arr(u[:-1].copy(), scratch),
                                  cell.inv_cdf_arr(u[:-1].copy(), scratch))

    @pytest.mark.parametrize("text", [
        "normal(0,1)",
        "exponential(1)",
        "mix(0.5*exponential(1), 0.5*normal(0,1))",
    ])
    def test_extreme_uniforms_give_finite_draws(self, text):
        # 1 - rng.random() lies in [2^-53, 1]; 1/2 and its successor are
        # the ends of the two components of the mixture
        u = np.array([2.0**-53, 0.5, math.nextafter(0.5, 1.0), 1.0])
        assert np.all(np.isfinite(from_uniforms(measure(text), u)))


def _float_neighbours(x):
    return [math.nextafter(x, 0.0), x, math.nextafter(x, 1.0)]


def _components(mu):
    """(weight / mass, kind) of each component, atoms first, as sampled."""
    mass = mu.total_mass
    return ([(m / mass, AtomKind(loc)) for loc, m in mu.atoms]
            + [(w / mass, kind) for w, kind in mu.parts])


def _horner(piece, x):
    """Exact value at x of the polynomial with ascending coefficients piece."""
    acc = Fraction(0)
    for c in reversed(piece):
        acc = acc * x + c
    return acc


def _cell_masses(kind):
    """Exact mass of each pwd cell: its antiderivative in x at both ends."""
    masses = []
    for (a, b), piece in zip(zip(kind.breaks, kind.breaks[1:]), kind.coeffs):
        anti = [0, *(c / (k + 1) for k, c in enumerate(piece))]
        masses.append(_horner(anti, b) - _horner(anti, a))
    return masses


def _mask_and_scatter(weights, u, draw):
    """Pick piece i where upper[i-1] < u <= upper[i], for the cumulative
    weights upper, by a mask per piece, and scatter draw(i, u - upper[i-1])
    back; any order of u."""
    upper = np.array([float(c) for c in itertools.accumulate(weights)])
    lower = np.concatenate(([0.0], upper[:-1]))
    idx = np.searchsorted(upper, u)
    out = np.full_like(u, math.nan)
    for i in range(len(weights)):
        hit = idx == i
        if hit.any():
            out[hit] = draw(i, u[hit] - lower[i])
    return out


def _mask_and_scatter_draws(mu, u):
    """Reference composition sampler: masks for the components, and for
    the cells of a pwd part, with no slices and no blocks."""
    comps = _components(mu)

    def draw(i, t):
        w, kind = comps[i]
        v = np.minimum(t / float(w), _BELOW_ONE)
        scratch = np.empty((SCRATCH_ROWS, v.size))
        if not isinstance(kind, PiecewisePoly):
            return kind.inv_cdf_arr(v, scratch)
        if len(kind.coeffs) == 1:
            return kind._cell_inv(0, v, scratch)
        return _mask_and_scatter(_cell_masses(kind), v,
                                 lambda i, t: kind._cell_inv(i, t, scratch))

    return _mask_and_scatter([w for w, _ in comps], u, draw)


# the branch seams of AS241: the central band ends, and r = 5 in each tail
SEAMS = (0.075, 0.925, math.exp(-25.0), 1.0 - math.exp(-25.0))


def _mp_ndtri(p):
    """The standard normal quantile of the float p, at 30 digits."""
    with mpmath.workdps(30):
        p = mpmath.mpf(p)
        if p > 0.5:  # 1 - p is exact at this precision
            return -_mp_ndtri(1 - p)
        x = mpmath.mpf(NormalDist().inv_cdf(float(p)))
        for _ in range(4):  # Newton from 15 digits
            x -= (mpmath.ncdf(x) - p) / mpmath.npdf(x)
        return x


def _quantile(p):
    """_ndtri_sorted of a copy of ascending p, NaN last."""
    p = np.array(p, dtype=float)
    return _ndtri_sorted(p, np.empty((SCRATCH_ROWS, p.size)))


class TestNdtri:
    def test_relative_error_against_mpmath(self):
        # a log grid for each tail and a linear one through the central band
        tail = np.logspace(-300, math.log10(0.5), 240, endpoint=False)  # p = 1/2 gives 0
        central = np.linspace(0.0, 1.0, 202)[1:-1]
        ps = np.sort(np.concatenate([tail, 1.0 - tail[tail > 1e-16], [_BELOW_ONE], central]
                                    + [_float_neighbours(c) for c in SEAMS]))
        want = [_mp_ndtri(p) for p in ps]
        worst = max(abs((g - w) / w) for g, w in zip(_quantile(ps), want))
        assert worst <= 1e-14

    def test_ends_and_centre(self):
        assert np.array_equal(_quantile([0.0, 0.5, 1.0]), [-np.inf, 0.0, np.inf])
        assert np.all(np.isnan(_quantile([-0.5, 1.5, np.nan])))

    @pytest.mark.parametrize("seam", SEAMS)
    def test_non_decreasing_across_each_seam(self, seam):
        assert np.all(np.diff(_quantile(_float_neighbours(seam))) >= 0)

    def test_values_do_not_depend_on_blocking(self):
        rng = np.random.default_rng(5)
        tails = 10.0 ** -rng.uniform(1, 300, 500)
        ps = np.sort(np.concatenate([rng.random(BLOCK - 1002), tails, 1.0 - tails[:499],
                                     SEAMS]))
        assert ps.size == BLOCK + 1
        one_point = np.array([_quantile([p])[0] for p in ps])
        for n in (BLOCK - 1, BLOCK, BLOCK + 1):
            assert np.array_equal(_quantile(ps[:n]), one_point[:n])


def _mask_rational(cols, x):
    acc = cols[0] * x
    for c in cols[1:-1]:
        acc += c
        acc *= x
    acc += cols[-1]
    return np.divide(acc[0], acc[1], out=acc[0])


def _mask_ndtri_tail(s):
    r = np.log(s)
    np.sqrt(np.negative(r, out=r), out=r)
    far = r > 5.0
    rf = r[far] if far.any() else None
    r -= 1.6
    out = _mask_rational(_AS241_NEAR, r)
    if rf is not None:
        out[far] = np.where(rf == np.inf, np.inf, _mask_rational(_AS241_FAR, rf - 5.0))
    return out


def _mask_ndtri_central(p):
    q = p - 0.5
    r = q * q
    out = _mask_rational(_AS241_CENTRAL, np.subtract(0.180625, r, out=r))
    out *= q
    return out


_MASK_SEAMS = _mask_ndtri_central(np.array([0.075, 0.925]))


def _mask_ndtri(p):
    """The normal quantile as the package computed it by masks, gathers and
    scatters, in any order, before its bands became slices of sorted p."""
    p = np.asarray(p, dtype=float)
    out = np.empty_like(p)
    low = p < 0.075
    high = ~(p <= 0.925)
    mid = ~(low | high)

    def lower(x):
        t = _mask_ndtri_tail(x)
        return np.minimum(np.negative(t, out=t), _MASK_SEAMS[0], out=t)

    def upper(x):
        t = _mask_ndtri_tail(1.0 - x)
        return np.maximum(t, _MASK_SEAMS[1], out=t)

    with np.errstate(divide="ignore", invalid="ignore"):
        for part, branch in ((mid, _mask_ndtri_central), (low, lower), (high, upper)):
            x = p[part]
            if x.size:
                out[part] = branch(x)
    return out


class TestSortedNdtri:
    """The in-place quantile of ascending p gives the mask-and-gather
    quantile's floats, bit for bit."""

    POINTS = [0.0, 5e-324, 1e-300, _BELOW_ONE, 1.0] + [
        x for seam in SEAMS for x in _float_neighbours(seam)]

    def test_bit_for_bit_on_ascending_input(self):
        rng = np.random.default_rng(11)
        ps = np.sort(np.concatenate([self.POINTS, rng.random(10**5)]))
        want = _mask_ndtri(ps)
        got = ps.copy()
        assert _ndtri_sorted(got, np.empty((SCRATCH_ROWS, ps.size))) is got
        assert np.array_equal(got, want)
        assert got[0] == -np.inf and got[-1] == np.inf

    @pytest.mark.parametrize("n", [1, 2, 17, BLOCK // 2 + 1])
    def test_short_arrays_and_a_wider_scratch(self, n):
        rng = np.random.default_rng(n)
        ps = np.sort(np.concatenate([self.POINTS, rng.random(n)])[-n:])
        got = ps.copy()
        _ndtri_sorted(got, np.empty((SCRATCH_ROWS, BLOCK)))
        assert np.array_equal(got, _mask_ndtri(ps))


class TestNormalSpans:
    @pytest.mark.parametrize("mean,std", [(0, 1), (Fraction(1, 3), Fraction(5, 2)),
                                          (-40, Fraction(1, 1000)), (10**6, 10**-3)])
    @pytest.mark.parametrize("tail", norms.TAILS)
    def test_ends_are_the_stdlib_quantile_bit_for_bit(self, mean, std, tail):
        d = NormalDist(float(mean), float(std))
        assert Normal(mean, std).spans(tail) == [(d.inv_cdf(tail), d.inv_cdf(1.0 - tail))]


class TestNormalCdf:
    @pytest.mark.parametrize("mean,std", [(0, 1), (Fraction(1, 3), Fraction(5, 2))])
    def test_is_libm_erf_bit_for_bit(self, mean, std):
        kind = Normal(mean, std)
        m, s = float(mean), float(std)
        xs = np.concatenate([np.linspace(-9.0, 9.0, 1001), [-40.0, 1e-300, -np.inf, np.inf]])
        want = [0.5 * (1.0 + math.erf((x - m) / s / math.sqrt(2.0))) for x in xs.tolist()]
        assert kind.cdf_arr(xs).tolist() == want
        assert kind.cdf_arr(xs.reshape(5, -1)).tolist() == np.reshape(want, (5, -1)).tolist()
        for x, w in zip(xs.tolist(), want):
            assert kind.cdf_arr(x) == w
            assert kind.cdf_arr(np.float64(x)) == w
            assert kind.cdf_arr(np.array(x)) == w


class TestDensities:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_normal_density_past_the_float_range_is_zero(self):
        # z * z overflows at x = 1, where the density is 0, with no warning
        assert Normal(0, Fraction(1, 10**200)).pdf_arr(np.array([1.0])).tolist() == [0.0]

    @pytest.mark.parametrize("a", [10**6, 10**8])
    def test_pwd_density_far_from_the_origin_does_not_cancel(self, a):
        # 3(x - a)^2 on (a, a + 1), whose floats in powers of x cancel: at
        # a = 10^8 they gave 0 and +-4
        kind = PiecewisePoly((a, a + 1), ((3 * a * a, -6 * a, 3),))
        xs = a + np.arange(11) / 10
        exact = [float(3 * (Fraction(x) - a) ** 2) for x in xs.tolist()]
        assert kind.pdf_arr(xs).tolist() == pytest.approx(exact, rel=1e-12, abs=0)


class TestEssentialWindow:
    def test_uniform_window(self):
        a, b = UNIFORM.essential_window(0.01)
        u = union(Interval(-math.inf, False, Fraction(repr(a)), True),
                  Interval(Fraction(repr(b)), True, math.inf, False))
        assert measure_of(UNIFORM, u) <= 0.01

    def test_normal_window(self):
        a, b = NORMAL.essential_window(1e-6)
        # oracle: normal quantile (mpmath)
        expect = float(_mp_ndtri(1 - 5e-7))
        assert a == pytest.approx(-expect, abs=1e-3)
        assert b == pytest.approx(expect, abs=1e-3)

    def test_pwd_window_leaves_out_cells_of_density_zero(self):
        mu = measure("pwd(breaks(-1,0,1,2,3), poly(0), poly(1), poly(0), poly(0,0))")
        a, b = mu.essential_window(0.1)
        assert a == pytest.approx(0, abs=1e-8) and b == pytest.approx(1, abs=1e-8)
        assert a < 0 and b > 1

    def test_atom_window_contains_location(self):
        mu = measure("atom(5)")
        a, b = mu.essential_window(0.1)
        assert a < 5 < b

    def test_weightless_parts_give_the_atoms_hull(self):
        mu = BorelMeasure(atoms=[(0, 1)], parts=[(0, Uniform(0, 1))])
        assert mu.essential_window(0.5) == (-1e-09, 1e-09)


class TestMeasureSpans:
    @pytest.mark.parametrize("text, want", [
        ("mix(0.5*normal(0,1), 0.5*uniform(0,1))", "normal"),
        ("mix(0.5*uniform(0,1), 0.5*uniform(2,3))", [(0.0, 1.0), (2.0, 3.0)]),
        ("mix(0.5*uniform(1,2), 0.5*uniform(0,1))", [(0.0, 2.0)]),
        ("pwd(breaks(0,1,2,3), poly(0.5), poly(0), poly(0.5))", [(0.0, 1.0), (2.0, 3.0)]),
        ("mix(0.5*atom(5), 0.5*pwd(breaks(-1,0,1), poly(0), poly(1)))", [(0.0, 1.0)]),
        ("mix(0.5*atom(0), 0.25*atom(3))", []),
    ])
    @pytest.mark.parametrize("tail", norms.TAILS)
    def test_pieces_merge_the_parts_spans(self, text, want, tail):
        """Sorted disjoint pieces: overlapping or touching spans join, a
        pwd cell of density 0 is a gap, and atoms have no spans."""
        mu = measure(text)
        got = mu.spans(tail)
        if want == "normal":
            want = Normal(0, 1).spans(tail)
        assert got == want
        assert all(a < b < c for (a, b), (c, _) in zip(got, got[1:]))


class TestInvariants:
    @settings(deadline=None, max_examples=50)
    @given(st.fractions(min_value=-2, max_value=3, max_denominator=16),
           st.fractions(min_value=-2, max_value=3, max_denominator=16))
    def test_additivity_and_complement(self, a, b):
        if a == b:
            return
        lo, hi = min(a, b), max(a, b)
        mid = (lo + hi) / 2
        s1 = union(open_interval(lo, mid))
        s2 = union(Interval(mid, True, hi, False))
        both = s1.union(s2)
        for mu in (UNIFORM, NORMAL, MIX):
            assert measure_of(mu, both) == pytest.approx(
                measure_of(mu, s1) + measure_of(mu, s2), abs=1e-12
            )
            comp = both.complement()
            assert measure_of(mu, both) + measure_of(mu, comp) == pytest.approx(
                float(mu.total_mass), abs=1e-12
            )


# exact CDF of the two-cell density 4x on (0, 1/2), 4 - 4x on (1/2, 1)
TENT = measure("pwd(breaks(0,0.5,1), poly(0,4), poly(4,-4))")


def _tent_cdf(x):
    x = min(max(x, Fraction(0)), Fraction(1))
    return 2 * x * x if x <= Fraction(1, 2) else 1 - 2 * (1 - x) ** 2


@st.composite
def rational_unions(draw):
    ends = draw(st.lists(st.fractions(min_value=-1, max_value=3, max_denominator=32),
                         min_size=2, max_size=8, unique=True))
    ends = sorted(ends)[: len(ends) // 2 * 2]
    return [Interval(lo, draw(st.booleans()), hi, draw(st.booleans()))
            for lo, hi in zip(ends[0::2], ends[1::2])]


@settings(deadline=None, max_examples=200)
# a pwd CDF from one antiderivative in x missed this mass by 1.3e-15
@example([Interval(Fraction(9, 10), False, Fraction(10, 11), False),
          Interval(Fraction(11, 12), False, Fraction(8, 3), False)], Fraction(0), Fraction(1))
@given(rational_unions(),
       st.fractions(min_value=-1, max_value=1, max_denominator=16),
       st.fractions(min_value=Fraction(1, 4), max_value=2, max_denominator=16))
def test_measure_of_matches_exact_rational_mass(ivs, a, width):
    s = IntervalUnion(ivs)
    b = a + width
    uniform = BorelMeasure(parts=[(1, Uniform(a, b))])
    exact = sum(max(min(iv.hi, b) - max(iv.lo, a), Fraction(0)) for iv in ivs) / width
    assert abs(measure_of(uniform, s) - float(exact)) <= 1e-15
    exact = sum(_tent_cdf(iv.hi) - _tent_cdf(iv.lo) for iv in ivs)
    assert abs(measure_of(TENT, s) - float(exact)) <= 1e-15


_small = st.fractions(min_value=-4, max_value=4, max_denominator=8)


@settings(deadline=None, max_examples=200)
@given(st.lists(_small, min_size=1, max_size=4), _small,
       st.fractions(min_value=0, max_value=Fraction(1, 64), max_denominator=4096),
       st.booleans(),
       st.fractions(min_value=-2, max_value=2, max_denominator=8),
       st.fractions(min_value=Fraction(1, 8), max_value=2, max_denominator=8))
def test_pwd_sign_check_is_sound(piece, r, m, square, a, h):
    """A point the check returns is one where the piece is negative; a piece
    it accepts is nonnegative on a fine exact grid; and (x - r)^2 + m >= 0
    is never called negative."""
    if square:
        piece = [r * r + m, -2 * r, 1]
    b = a + h
    x = _negative_point(PiecewisePoly._bernstein(PiecewisePoly._shifted(piece, a), h), a, b)
    if x is None:
        grid = (a + h * Fraction(i, 64) for i in range(65))
        assert all(_horner(piece, y) >= 0 for y in grid)
    elif x is not _UNDECIDED:
        assert not square
        assert a <= x <= b and _horner(piece, x) < 0
