"""Finite Borel measures on the real line.

A measure is a finite mixture of point atoms and absolutely continuous
components (uniform, normal, exponential, piecewise-polynomial density).
Each kind checks its own parameters, that their floats are finite, and
that a uniform, a normal's mean +- stddev and each pwd cell have a
positive float width, when it is built, with the ``MeasureSpecError``
that the measure grammar prints. Each density kind has one distribution
function, ``cdf_arr``, and ``BorelMeasure.cdf_arr`` adds the atoms'
steps to their weighted sum. No step of the pipeline reads a
distribution function; the tests take interval masses and sampling
oracles from them. The normal CDF is libm's ``math.erf``, taken point by
point. A pwd reads its coefficients once, into one table per cell: the
exact Taylor coefficients at the cell's left end a, from which its mass,
its nonnegativity proof and its spans follow, and their floats, the
density and its antiderivative in t = x - a, from which ``pdf_arr``,
``cdf_arr`` and the inverse are evaluated, so that a density far from 0
does not cancel. Each kind also states its ``variation``:
the jumps of its density and a bound on the variation between them, from
which ``norms.wave_norm_bound`` bounds the wave term in closed form, and
its ``spans``, its one support method: sorted disjoint float (a, b)
with mass at most ``tail`` on each side, less the pwd cells where the
density is identically 0, the only places where quadrature evaluates a
target; their hull bounds the tail rings. ``BorelMeasure.spans`` merges
the parts' spans into sorted disjoint pieces: the grid route's pieces,
and the hull from which ``essential_window`` is taken.
Sampling draws from ``mu / total_mass`` by composition: pick a component,
then invert its CDF exactly (Devroye, *Non-Uniform Random Variate
Generation*, 1986, ch. 2). The uniforms are stratified, one to each of
n equal strata of (0, 1], so they come out ascending with no sort, one
cache-sized block at a time through one buffer, and within a block each
component's draws, and each pwd cell's, are one slice, found by a binary
search of the cumulative weights. Each slice is mapped in place by its
kind's inverse CDF, which borrows its intermediates from scratch that the
sampler makes once per call, so a block makes no array of its floats. The
normal quantile is Wichura's AS241 PPND16 (*Applied Statistics* 37,
1988), run in numpy on ascending input, whose three bands are slices.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .intervals import as_rational

_SQRT2 = math.sqrt(2.0)
# largest float below 1: keeps ndtri and log1p finite at the top end
_BELOW_ONE = math.nextafter(1.0, 0.0)


def _columns(num, den):
    """The (2, 1) columns (num_k, den_k) of a rational's coefficients,
    highest power first."""
    return np.array([num, den])[:, ::-1].T[:, :, None]


# Wichura's AS241 PPND16 (Applied Statistics 37, 1988): the numerator and
# denominator coefficients, ascending, of the rational in r = 0.180625 - q^2
# that gives the quantile over q = p - 1/2 on the central band
# |q| <= 0.425 (taken as 0.075 <= p <= 0.925), and of the two tail
# rationals in r = sqrt(-log(min(p, 1 - p))), split at r = 5
_AS241_CENTRAL = _columns(
    (3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
     1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
     3.3430575583588128105e4, 2.5090809287301226727e3),
    (1.0, 4.2313330701600911252e1, 6.8718700749205790830e2, 5.3941960214247511077e3,
     2.1213794301586595867e4, 3.9307895800092710610e4, 2.8729085735721942674e4,
     5.2264952788528545610e3),
)
_AS241_NEAR = _columns(
    (1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
     3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
     2.27238449892691845833e-2, 7.74545014278341407640e-4),
    (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
     1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4,
     1.05075007164441684324e-9),
)
_AS241_FAR = _columns(
    (6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
     2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
     2.71155556874348757815e-5, 2.01033439929228813265e-7),
    (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
     7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7,
     2.04426310338993978564e-15),
)
# draws per block of the Monte Carlo path (sample_blocks, which maps each
# block in place through buffers it allocates once per call, and mc_norm
# in norms, which folds each block into its two running sums); a multiple
# of 4, so that every block but the last holds mc_norm's whole groups of
# four strata. No array of BLOCK floats is made per block, so the block's
# pages are faulted in once per call and stay in cache, and the path's
# memory does not grow with the number of draws; on 10^6 points one block
# of all of them takes more than twice as long, and smaller blocks make
# more numpy calls
BLOCK = 1 << 15
# rows of the scratch that the inverse CDFs borrow from their caller: the
# normal quantile's central band holds r and its two Horner accumulators,
# and a pwd cell's bisection its two ends, its midpoints and its
# polynomial there
SCRATCH_ROWS = 4


def _rational(cols, x, acc, out):
    """num(x) / den(x) into out, which may be x, by Horner: numerator and
    denominator in the two rows of acc, one numpy call per step and in
    place, as on a few 10^4 points the calls, not the arithmetic, set the
    cost."""
    np.multiply(cols[0], x, out=acc)
    for c in cols[1:-1]:
        acc += c
        acc *= x
    acc += cols[-1]
    return np.divide(acc[0], acc[1], out=out)


def _ndtri_tail(s, acc):
    """Minus the standard normal quantile of each tail mass s < 0.075, in
    place; the rare points past r = 5 are gathered."""
    r = np.log(s, out=s)
    np.sqrt(np.negative(r, out=r), out=r)
    far = r > 5.0
    rf = r[far] if far.any() else None
    r -= 1.6
    _rational(_AS241_NEAR, r, acc, r)
    if rf is not None:
        x = rf - 5.0
        r[far] = np.where(rf == np.inf, np.inf, _rational(_AS241_FAR, x, acc[:, :x.size], x))
    return r


def _ndtri_central(p, scratch):
    """Standard normal quantile of each p in [0.075, 0.925], in place."""
    q = np.subtract(p, 0.5, out=p)
    r = np.multiply(q, q, out=scratch[0])
    _rational(_AS241_CENTRAL, np.subtract(0.180625, r, out=r), scratch[1:3], r)
    q *= r
    return q


# the central values at the seams bound the tails, so that the output
# does not step back where the branch changes (log in the tails is not
# correctly rounded)
_SEAM_LO, _SEAM_HI = _ndtri_central(np.array([0.075, 0.925]), np.empty((SCRATCH_ROWS, 2)))


def _ndtri_low(p, scratch):
    t = _ndtri_tail(p, scratch[1:3])
    return np.minimum(np.negative(t, out=t), _SEAM_LO, out=t)


def _ndtri_high(p, scratch):
    t = _ndtri_tail(np.subtract(1.0, p, out=p), scratch[1:3])  # 1 - p is exact here
    return np.maximum(t, _SEAM_HI, out=t)


def _ndtri_sorted(p, scratch):
    """Standard normal quantile (AS241) of each p of an ascending array,
    NaN last, in place: -inf at 0, inf at 1, NaN outside [0, 1].

    Each p is mapped on its own, so the result does not depend on the
    blocking of the input. The lower tail p < 0.075, the central band up
    to 0.925 and the upper tail, where NaN falls and maps to NaN, are
    three slices of p, found by two binary searches. scratch is a float
    array of SCRATCH_ROWS rows of at least p.size.
    """
    i = np.searchsorted(p, 0.075, side="left")
    j = np.searchsorted(p, 0.925, side="right")
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo, hi, branch in ((0, i, _ndtri_low), (i, j, _ndtri_central),
                               (j, p.size, _ndtri_high)):
            if lo < hi:
                branch(p[lo:hi], scratch[:, :hi - lo])
    return p


class MeasureSpecError(ValueError):
    """Invalid component parameters or mass mismatch."""


def _check_floats(kind, name, *xs, positive=False, error=MeasureSpecError):
    """Refuse values xs of a kind's parameter, a mixture's weight or mass,
    or a request's eps, whose float is not finite or, for a width, stddev
    or rate, not above 0: the float methods that read them need both. A
    request field, which is no measure parameter, passes error=ValueError."""
    for x in xs:
        try:
            if math.isfinite(f := float(x)) and (f > 0 or not positive):
                continue
        except OverflowError:
            pass
        raise error(f"{kind} {name} has no {'positive ' * positive}finite float")


def _slices(lowers, u):
    """Split ascending u among pieces, where lowers[i] is the float
    cumulative weight before piece i (lowers[0] = 0): yield (i, start, stop)
    per piece i that u hits, u[start:stop] being the u with
    lowers[i] < u <= lowers[i + 1]. The last piece runs to the end of u."""
    bounds = [0, *np.searchsorted(u, lowers[1:], side="right").tolist(), u.size]
    for i, (start, stop) in enumerate(zip(bounds, bounds[1:])):
        if start < stop:
            yield i, start, stop


# ---------------------------------------------------------------------------
# Density kinds (each normalized to unit mass)


@dataclass(frozen=True)
class AtomKind:
    """Unit point mass; kept distinct from continuous kinds."""

    location: Fraction

    def __post_init__(self):
        object.__setattr__(self, "location", as_rational(self.location))
        _check_floats("atom", "location", self.location)

    def inv_cdf_arr(self, v, scratch):
        v.fill(float(self.location))
        return v


@dataclass(frozen=True)
class Uniform:
    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", as_rational(self.a))
        object.__setattr__(self, "b", as_rational(self.b))
        if not self.a < self.b:
            raise MeasureSpecError(f"uniform requires a < b, got ({self.a}, {self.b})")
        _check_floats("uniform", "bound", self.a, self.b)
        _check_floats("uniform", "width b - a", float(self.b) - float(self.a), positive=True)

    def cdf_arr(self, xs):
        a, b = float(self.a), float(self.b)
        return np.clip((xs - a) / (b - a), 0.0, 1.0)

    def pdf_arr(self, xs):
        a, b = float(self.a), float(self.b)
        return np.where((xs > a) & (xs < b), 1.0 / (b - a), 0.0)

    def inv_cdf_arr(self, v, scratch):
        a, b = float(self.a), float(self.b)
        v *= b - a
        v += a
        return v

    def variation(self):
        """Density jumps (x, jump) and the variation left between them."""
        h = 1 / (self.b - self.a)
        return [(self.a, h), (self.b, -h)], 0

    def spans(self, tail):
        return [(float(self.a), float(self.b))]


@dataclass(frozen=True)
class Normal:
    mean: Fraction
    std: Fraction

    def __post_init__(self):
        object.__setattr__(self, "mean", as_rational(self.mean))
        object.__setattr__(self, "std", as_rational(self.std))
        if not self.std > 0:
            raise MeasureSpecError(f"normal requires stddev > 0, got {self.std}")
        _check_floats("normal", "mean", self.mean)
        _check_floats("normal", "stddev", self.std, positive=True)
        _check_floats("normal", "stddev at its mean",
                      float(self.mean + self.std) - float(self.mean - self.std), positive=True)

    def cdf_arr(self, xs):
        z = np.asarray((xs - float(self.mean)) / float(self.std) / _SQRT2)
        erf = np.fromiter(map(math.erf, z.ravel()), float, z.size).reshape(z.shape)
        return 0.5 * (1.0 + erf)

    def pdf_arr(self, xs):
        m, s = float(self.mean), float(self.std)
        with np.errstate(over="ignore"):  # z or z * z past the float range: a density of 0
            z = (xs - m) / s
            return np.exp(-0.5 * z * z) / (s * math.sqrt(2.0 * math.pi))

    def inv_cdf_arr(self, v, scratch):
        """The quantile of each v of an ascending array."""
        _ndtri_sorted(v, scratch)
        v *= float(self.std)
        v += float(self.mean)
        return v

    def variation(self):
        """No jumps; the density rises to pdf(mean) and falls back."""
        return [], 2.0 / (float(self.std) * math.sqrt(2.0 * math.pi))

    # every integral asks again for the same few tails, and numpy's fixed
    # costs make one quantile call on two points take about 0.06 ms
    @functools.lru_cache(maxsize=64)
    def spans(self, tail):
        # tail <= 10^-6, so the two points ascend
        z = _ndtri_sorted(np.array([tail, 1.0 - tail]), np.empty((SCRATCH_ROWS, 2)))
        z = float(self.mean) + float(self.std) * z
        return [tuple(z.tolist())]


@dataclass(frozen=True)
class Exponential:
    rate: Fraction

    def __post_init__(self):
        object.__setattr__(self, "rate", as_rational(self.rate))
        if not self.rate > 0:
            raise MeasureSpecError(f"exponential requires rate > 0, got {self.rate}")
        _check_floats("exponential", "rate", self.rate, positive=True)

    def cdf_arr(self, xs):
        return np.where(xs <= 0.0, 0.0, -np.expm1(-float(self.rate) * xs))

    def pdf_arr(self, xs):
        r = float(self.rate)
        return np.where(xs > 0.0, r * np.exp(-r * xs), 0.0)

    def inv_cdf_arr(self, v, scratch):
        np.negative(v, out=v)
        np.log1p(v, out=v)
        np.negative(v, out=v)
        v /= float(self.rate)
        return v

    def variation(self):
        """A jump of rate at 0, then a fall from rate to 0."""
        return [(Fraction(0), self.rate)], self.rate

    def spans(self, tail):
        return [(0.0, -math.log(tail) / float(self.rate))]


# most halvings of one pwd cell in its nonnegativity check: enough for a
# piece whose minimum inside the cell is 0 at a dyadic point, or positive
# but tiny, while a root of even order elsewhere inside stays undecided
_MAX_HALVINGS = 64
_UNDECIDED = object()


def _halves(beta):
    """de Casteljau at t = 1/2: the Bernstein coefficients of both halves."""
    left, right = [beta[0]], [beta[-1]]
    while len(beta) > 1:
        beta = [(u + w) / 2 for u, w in zip(beta, beta[1:])]
        left.append(beta[0])
        right.append(beta[-1])
    return left, right[::-1]


def _negative_point(beta, a, b):
    """A point of [a, b] where the polynomial with Bernstein coefficients
    beta there is negative; None if it is nonnegative on all of [a, b], and
    _UNDECIDED if _MAX_HALVINGS halvings show neither. All coefficients of
    a cell nonnegative prove the polynomial nonnegative on it (they are the
    weights of a convex combination); the first and last are its values at
    the cell's ends, so a negative one proves it negative there."""
    cells, halvings = [(a, b, beta)], 0
    while cells:
        lo, hi, beta = cells.pop()
        if beta[0] < 0:
            return lo
        if beta[-1] < 0:
            return hi
        if min(beta) >= 0:
            continue
        if halvings == _MAX_HALVINGS:
            return _UNDECIDED
        halvings += 1
        left, right = _halves(beta)
        mid = (lo + hi) / 2
        cells += [(mid, hi, right), (lo, mid, left)]
    return None


@dataclass(frozen=True)
class PiecewisePoly:
    """Density that is polynomial on each cell of a breakpoint grid.

    coeffs[i] are ascending-power coefficients of the density on
    (breaks[i], breaks[i+1]); only ``__post_init__`` reads them, into the
    cell table. The breaks must strictly increase, there is
    one piece per cell, the total integral must be exactly 1, and each
    piece is shown nonnegative on its cell in exact arithmetic
    (``_negative_point``), or rejected.
    """

    breaks: tuple
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "breaks", tuple(as_rational(b) for b in self.breaks))
        object.__setattr__(
            self, "coeffs", tuple(tuple(as_rational(c) for c in piece) for piece in self.coeffs)
        )
        n = len(self.breaks) - 1
        if n < 1 or any(a >= b for a, b in zip(self.breaks, self.breaks[1:])):
            raise MeasureSpecError("pwd breakpoints must be strictly increasing")
        if len(self.coeffs) != n:
            raise MeasureSpecError(f"pwd needs {n} poly pieces, got {len(self.coeffs)}")
        _check_floats("pwd", "breakpoint", *self.breaks)
        _check_floats("pwd", "coefficient", *sum(self.coeffs, ()))
        # the one polynomial table, per cell: float ends, the float mass
        # before it, and in t = x - a, in descending powers, the float
        # antiderivative (zero at t = 0, so cdf_arr adds small terms to the
        # mass before the cell instead of cancelling large ones) and the
        # float density, which pdf_arr and _cell_inv read (far from 0 it
        # does not cancel, as the powers of x do); then the exact Taylor
        # coefficients d_k of the density at a + t, from which every exact
        # fact of the cell follows: its mass sum_k d_k h^(k+1) / (k+1), with
        # h = b - a, its Bernstein coefficients and its value
        # sum_k d_k h^k at b
        cells, before = [], Fraction(0)
        for (a, b), piece in zip(zip(self.breaks, self.breaks[1:]), self.coeffs):
            _check_floats("pwd", "cell width", float(b) - float(a), positive=True)
            d = self._shifted(piece, a)
            x = _negative_point(self._bernstein(d, b - a), a, b) if d else None
            if x is _UNDECIDED:
                raise MeasureSpecError(
                    f"pwd piece on ({float(a):g}, {float(b):g}) not shown nonnegative "
                    f"in {_MAX_HALVINGS} halvings: it may touch 0 at a point inside "
                    "that no halving reaches"
                )
            if x is not None:
                raise MeasureSpecError(f"pwd piece negative at x={float(x):g}")
            dens = [float(c) for c in reversed(d)]
            anti = [float(c / (k + 1)) for k, c in reversed(list(enumerate(d)))] + [0.0]
            cells.append((float(a), float(b), float(before), anti, dens, d))
            before += sum(c * (b - a) ** (k + 1) / (k + 1) for k, c in enumerate(d))
        object.__setattr__(self, "_cells", tuple(cells))
        if before != 1:
            raise MeasureSpecError(f"pwd density integrates to {before}, expected 1")

    @staticmethod
    def _shifted(piece, a):
        """Taylor shift: exact coefficient k of the density at a + t."""
        return [sum(piece[j] * math.comb(j, k) * a ** (j - k)
                    for j in range(k, len(piece)))
                for k in range(len(piece))]

    @staticmethod
    def _bernstein(d, h):
        """Exact Bernstein coefficients on a cell of width h whose Taylor
        coefficients at its left end are d: those of q(t) = sum_k c_k t^k,
        c_k = d_k h^k, on [0, 1] are sum_{k<=j} C(j,k) / C(n,k) c_k."""
        c = [dk * h**k for k, dk in enumerate(d)]
        n = len(c) - 1
        return [sum(Fraction(math.comb(j, k), math.comb(n, k)) * c[k] for k in range(j + 1))
                for j in range(n + 1)]

    def cdf_arr(self, xs):
        xs = np.asarray(xs, dtype=float)
        out = np.zeros_like(xs)
        for af, bf, before, anti, _, _ in self._cells:
            out[xs >= af] = before
            inside = (xs > af) & (xs < bf)
            if inside.any():
                out[inside] += np.polyval(anti, xs[inside] - af)
        out[xs >= self._cells[-1][1]] = 1.0  # the total integral is exactly 1
        return out

    def pdf_arr(self, xs):
        out = np.zeros_like(xs, dtype=float)
        for af, bf, _, _, dens, _ in self._cells:
            mask = (xs > af) & (xs <= bf)
            if mask.any():
                out[mask] = np.polyval(dens, xs[mask] - af)
        return out

    def inv_cdf_arr(self, v, scratch):
        """x with F(x) = v, for ascending v, in place: each cell's v form
        one slice, found by the mass before each cell, and are solved in
        that cell."""
        before = [cell[2] for cell in self._cells]
        # the slice bounds are all found before the first x is written
        for i, start, stop in _slices(before, v):
            cell = v[start:stop]
            cell -= before[i]
            self._cell_inv(i, cell, scratch)
        return v

    def _cell_inv(self, i, t, scratch):
        """x in cell i whose mass from the cell's left end is t, written
        over t; the root form takes row 0 of scratch, and the bisection
        all SCRATCH_ROWS rows."""
        af, bf, _, anti, dens, _ = self._cells[i]
        if len(dens) <= 2:
            # density d0 + c1*(x - a): a quadratic CDF, solved in the root
            # form that does not cancel, also where d0 = 0, in place
            d0 = dens[-1]
            c1 = dens[0] if len(dens) == 2 else 0.0
            disc = np.multiply(t, 2.0 * c1, out=scratch[0, :t.size])
            disc += d0 * d0
            np.sqrt(np.maximum(disc, 0.0, out=disc), out=disc)
            disc += d0
            t *= 2.0
            np.divide(t, disc, out=t)
            t += af
            return np.clip(t, af, bf, out=t)
        # a cell of degree 2 or more bisects 56 times, in place: x holds
        # the midpoint less a, at which y is the antiderivative by Horner
        # as np.polyval evaluates it, and then the midpoint itself
        lo, hi, x, y = (row[:t.size] for row in scratch)
        ge = np.empty(t.size, dtype=bool)
        lo.fill(af)
        hi.fill(bf)
        for _ in range(56):
            np.add(lo, hi, out=x)
            x *= 0.5
            x -= af
            y.fill(anti[0])
            for c in anti[1:]:
                y *= x
                y += c
            np.greater_equal(y, t, out=ge)
            np.add(lo, hi, out=x)
            x *= 0.5
            np.copyto(hi, x, where=ge)
            np.copyto(lo, x, where=np.logical_not(ge, out=ge))
        t[...] = hi
        return t

    def variation(self):
        """The jump at every break; per cell, sum_{k>=1} |d_k| h^k bounds
        the integral of |density'|, with d_k the shifted coefficients."""
        jumps, rest, left = [], Fraction(0), Fraction(0)
        for (a, b), (*_, d) in zip(zip(self.breaks, self.breaks[1:]), self._cells):
            jumps.append((a, d[0] - left))
            rest += sum(abs(c) * (b - a) ** k for k, c in enumerate(d) if k)
            left = sum(c * (b - a) ** k for k, c in enumerate(d))
        jumps.append((self.breaks[-1], -left))
        return jumps, rest

    def spans(self, tail):
        """The runs of adjacent cells whose polynomial is not identically 0,
        as float (a, b): the breakpoint range less the cells where the
        density, and so mu, is 0. There is no tail."""
        out = []
        for af, bf, _, _, _, d in self._cells:
            if not any(d):
                continue
            if out and out[-1][1] == af:
                out[-1] = (out[-1][0], bf)
            else:
                out.append((af, bf))
        return out


@dataclass(frozen=True)
class MeasureSpec:
    """Parse result: weighted components, and the total mass that the text
    declares, or None; BorelMeasure checks the weights against it."""

    components: tuple
    declared_total_mass: Fraction | None
    source_text: str = ""


# ---------------------------------------------------------------------------
# BorelMeasure


class BorelMeasure:
    """Immutable finite Borel measure: atoms + absolutely continuous parts.

    It checks its weights and its mass with the ``MeasureSpecError`` that
    the measure grammar prints, in this order: no weight is negative and
    each has a finite float, a declared mass is positive and equals the
    weights' sum, and the total mass is positive and has a finite float.
    """

    def __init__(self, atoms=(), parts=(), total_mass=None, source_text=""):
        self.source_text = source_text
        self.atoms = tuple(sorted(((as_rational(l), as_rational(m)) for l, m in atoms)))
        self.parts = tuple((as_rational(w), kind) for w, kind in parts)
        weights = [m for _, m in self.atoms] + [w for w, _ in self.parts]
        for w in weights:
            if w < 0:
                raise MeasureSpecError(f"negative weight {w}")
        _check_floats("mix", "weight", *weights)
        self.total_mass = computed = sum(weights)
        if total_mass is not None:
            self.total_mass = as_rational(total_mass)
            if self.total_mass <= 0:
                raise MeasureSpecError(f"declared mass must be positive, got {self.total_mass}")
            if computed != self.total_mass:
                raise MeasureSpecError(
                    f"weights sum to {computed}, declared mass is {self.total_mass}")
        if self.total_mass <= 0:
            raise MeasureSpecError("total mass must be positive")
        _check_floats("mix", "total mass", self.total_mass)
        # the composition table of _map_uniforms: per component (atoms
        # first, then parts, in stored order), its float weight w / mass,
        # the float cumulative weight before it and its kind
        comps = [(m / self.total_mass, AtomKind(loc)) for loc, m in self.atoms]
        comps += [(w / self.total_mass, kind) for w, kind in self.parts]
        self._weights = tuple(float(w) for w, _ in comps)
        self._lowers = tuple(
            float(c) for c in itertools.accumulate((w for w, _ in comps[:-1]), initial=0))
        self._kinds = tuple(kind for _, kind in comps)

    @classmethod
    def from_spec(cls, spec: MeasureSpec):
        """The measure of a parsed spec; every component of nonzero weight,
        a negative one included, is passed on to be checked."""
        comps = [(w, kind) for w, kind in spec.components if w]
        atoms = [(kind.location, w) for w, kind in comps if isinstance(kind, AtomKind)]
        parts = [(w, kind) for w, kind in comps if not isinstance(kind, AtomKind)]
        return cls(atoms=atoms, parts=parts, total_mass=spec.declared_total_mass,
                   source_text=spec.source_text)

    # -- CDF ----------------------------------------------------------------

    def cdf_arr(self, xs):
        xs = np.asarray(xs, dtype=float)
        acc = np.zeros_like(xs)
        for loc, m in self.atoms:
            acc += np.where(xs >= float(loc), float(m), 0.0)
        for w, kind in self.parts:
            acc += float(w) * kind.cdf_arr(xs)
        return acc

    # -- sampling -----------------------------------------------------------

    def sample(self, n, seed):
        """n stratified draws of mu / total_mass; deterministic given seed.

        The blocks of ``sample_blocks(n, seed)``, joined in order: each
        block holds one ascending run per component (atoms first, then
        parts, in stored order). The draws are not independent: each of n
        equal strata of (0, 1] gets one of them.
        """
        out = np.empty(n)
        s = 0
        for blk in self.sample_blocks(n, seed):
            out[s:s + blk.size] = blk
            s += blk.size
        return out

    def sample_blocks(self, n, seed):
        """Yield n stratified draws of mu / total_mass, a block at a time.

        (0, 1] is cut into n equal strata, and stratum k takes the k-th
        uniform V of ``default_rng(seed)``: u_k = (k + 1 - V) / n. So
        each draw has weight 1/n, and the u lie in (0, 1] and ascend over
        the whole sample with no sort (Cochran, *Sampling Techniques*,
        3rd ed., 1977, ch. 5).

        A block holds ``BLOCK`` draws, and the last what is left. Each
        block is mapped in place by ``_map_uniforms``, with the
        inverse CDFs' scratch allocated once here: no array of BLOCK
        floats is made per block, and the draws take a few blocks of
        memory whatever n is. A block is a view of one buffer: it may be
        written to, and the next block is drawn into it. Each component's
        draws in a block are one ascending run; a step-function lookup of
        the block merges each run, so one merge where it ascends overall,
        and one per component where parts overlap or are listed out of
        order, as in mix(0.5*normal(0,1), 0.5*uniform(0,1)).
        """
        rng = np.random.default_rng(seed)
        buf = np.empty(min(n, BLOCK))
        # rows of half a block: the scratch then takes 2 blocks of memory,
        # not 4, for one more inverse CDF call per part
        scratch = np.empty((SCRATCH_ROWS, (buf.size + 1) // 2))
        # the upper ends k + 1 of the strata of the next half block
        tops = np.arange(1.0, scratch.shape[1] + 1)
        for start in range(0, n, BLOCK):
            u = buf[:min(n - start, BLOCK)]
            rng.random(out=u)
            for half in (u[:tops.size], u[tops.size:]):
                np.subtract(tops[:half.size], half, out=half)
                tops += half.size
            u /= n
            yield self._map_uniforms(u, scratch)

    def _map_uniforms(self, u, scratch):
        """Map ascending uniforms u in (0, 1] to draws of mu / total_mass,
        in place and unchecked, with the inverse CDFs' scratch of
        SCRATCH_ROWS rows.

        Composition: the component is picked from the cumulative weights
        w / total_mass (atoms first, then parts, in stored order), so on
        ascending u each component's draws are one slice of u. Within it,
        u is rescaled to v in (0, 1) in place and mapped there by the
        component's inverse CDF, a scratch row's length at a time. Each u
        is mapped on its own, so the draws do not depend on how u is cut
        into blocks.
        """
        # the slice bounds are all found before the first draw is written
        for i, start, stop in _slices(self._lowers, u):
            for a in range(start, stop, scratch.shape[1]):
                b = min(a + scratch.shape[1], stop)
                v = np.subtract(u[a:b], self._lowers[i], out=u[a:b])
                v /= self._weights[i]
                self._kinds[i].inv_cdf_arr(np.minimum(v, _BELOW_ONE, out=v), scratch)
        return u

    # -- support window ------------------------------------------------------

    def spans(self, tail):
        """The parts' spans at tail, merged into sorted disjoint float
        (a, b): each part has mass at most its weight times tail on each
        side of their hull, and the pwd cells of density 0 are left out.
        An atoms-only measure has none."""
        out = []
        for a, b in sorted(span for _, kind in self.parts for span in kind.spans(tail)):
            if out and a <= out[-1][1]:  # (a, b) meets the last piece: they join
                a, b = out[-1][0], max(out.pop()[1], b)
            out.append((a, b))
        return out

    def essential_window(self, delta):
        """Finite (a, b) with mass outside at most delta: the hull of the
        atoms and of ``spans(t)``, t = min(delta / (2 W), 1/4), where W is
        the parts' weight, or of the atoms alone where W is 0. A unit part
        has mass at most t on each side of the hull of its spans, so the
        mass outside is at most 2 t W <= delta. A pwd's spans leave out
        its cells of density 0, so its hull ends at its outermost cells of
        nonzero density."""
        if not 0 < delta < float(self.total_mass):
            raise ValueError("delta must lie in (0, total_mass)")
        ends = [float(loc) for loc, _ in self.atoms]
        weight = float(sum(w for w, _ in self.parts))
        if weight > 0:
            spans = self.spans(min(delta / (2.0 * weight), 0.25))
            ends += (spans[0][0], spans[-1][1])
        a, b = min(ends), max(ends)
        pad = max(1e-9, 1e-9 * (abs(a) + abs(b)))
        return a - pad, b + pad

    def density_breakpoints(self):
        """Atom locations plus the points where a density jumps, as its
        ``variation`` lists them (exact values)."""
        pts = [loc for loc, _ in self.atoms]
        for _, kind in self.parts:
            pts.extend(x for x, _ in kind.variation()[0])
        return sorted(set(pts))
