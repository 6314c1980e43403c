"""Finite Borel measures on the real line.

A measure is a finite mixture of point atoms and absolutely continuous
components (uniform, normal, exponential, piecewise-polynomial density).
Each kind checks its own parameters, and that their floats are finite,
when it is built, with the ``MeasureSpecError`` that the measure grammar
prints. Each density kind has one distribution function, ``cdf_arr``,
and ``BorelMeasure.cdf_arr`` adds the atoms' steps to their weighted sum.
No step of the pipeline reads a distribution function; the tests take
interval masses and sampling oracles from them. The normal CDF is libm's
``math.erf``, taken point by point. Each kind also states its ``variation``:
the jumps of its density and a bound on the variation between them, from
which ``norms.wave_norm_bound`` bounds the wave term in closed form, and
its ``spans``, its one support method: sorted disjoint float (a, b)
with mass at most ``tail`` on each side, less the pwd cells where the
density is identically 0, the only places where quadrature evaluates a
target; their hull bounds the tail rings and ``essential_window``.
Sampling draws from ``mu / total_mass`` by composition: pick a component,
then invert its CDF exactly (Devroye, *Non-Uniform Random Variate
Generation*, 1986, ch. 2). The uniforms come one cache-sized block at a
time through one reused buffer, and each block is sorted, so that within
it each component's draws, and each pwd cell's, are one slice, found by
a binary search of the cumulative weights. The normal quantile is
Wichura's AS241 PPND16 (*Applied Statistics* 37, 1988), run in numpy.
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
# draws per block of the Monte Carlo path (sample_blocks, whose one buffer
# from_uniforms maps in place, and mc_norm in norms, which folds each
# block into its running mean and variance): a few block-sized
# temporaries (256 kB each) stay in cache, and the path's memory does not
# grow with the number of draws; on 10^6 points one block of all of them
# takes more than twice as long, and smaller blocks make more numpy calls
BLOCK = 1 << 15


def _rational(cols, x):
    """num(x) / den(x) by Horner, both in one numpy call per step and in
    place: on a few 10^4 points the calls and the new arrays, not the
    arithmetic, set the cost."""
    acc = cols[0] * x
    for c in cols[1:-1]:
        acc += c
        acc *= x
    acc += cols[-1]
    return np.divide(acc[0], acc[1], out=acc[0])


def _ndtri_tail(s):
    """Minus the standard normal quantile of each tail mass s < 0.075."""
    r = np.log(s)
    np.sqrt(np.negative(r, out=r), out=r)
    far = r > 5.0
    rf = r[far] if far.any() else None
    r -= 1.6
    out = _rational(_AS241_NEAR, r)
    if rf is not None:
        out[far] = np.where(rf == np.inf, np.inf, _rational(_AS241_FAR, rf - 5.0))
    return out


def _ndtri_central(p):
    """Standard normal quantile of each p in [0.075, 0.925]."""
    q = p - 0.5
    r = q * q
    out = _rational(_AS241_CENTRAL, np.subtract(0.180625, r, out=r))
    out *= q
    return out


# the central values at the seams bound the tails, so that the output
# does not step back where the branch changes (log in the tails is not
# correctly rounded)
_SEAM_LO, _SEAM_HI = _ndtri_central(np.array([0.075, 0.925]))


def _ndtri_low(p):
    t = _ndtri_tail(p)
    return np.minimum(np.negative(t, out=t), _SEAM_LO, out=t)


def _ndtri_high(p):
    t = _ndtri_tail(1.0 - p)  # 1 - p is exact here
    return np.maximum(t, _SEAM_HI, out=t)


def _ndtri(p):
    """Standard normal quantile of each p (AS241): -inf at 0, inf at 1,
    NaN outside [0, 1].

    Each p is mapped on its own, so the result does not depend on the
    order or the blocking of the input; ``sample_blocks`` passes at most
    ``BLOCK`` points at a time. Masks split p into the lower tail, the
    central band [0.075, 0.925] and the upper tail; NaN falls in the upper
    tail, which maps it to NaN.
    """
    p = np.asarray(p, dtype=float)
    out = np.empty_like(p)
    low = p < 0.075
    high = ~(p <= 0.925)
    mid = ~(low | high)
    with np.errstate(divide="ignore", invalid="ignore"):
        for part, branch in ((mid, _ndtri_central), (low, _ndtri_low), (high, _ndtri_high)):
            x = p[part]
            if x.size:
                out[part] = branch(x)
    return out


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

    def inv_cdf_arr(self, v):
        return np.full_like(v, float(self.location))


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

    def inv_cdf_arr(self, v):
        a, b = float(self.a), float(self.b)
        return a + (b - a) * v

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

    def cdf_arr(self, xs):
        z = np.asarray((xs - float(self.mean)) / float(self.std) / _SQRT2)
        erf = np.fromiter(map(math.erf, z.ravel()), float, z.size).reshape(z.shape)
        return 0.5 * (1.0 + erf)

    def pdf_arr(self, xs):
        m, s = float(self.mean), float(self.std)
        z = (xs - m) / s
        return np.exp(-0.5 * z * z) / (s * math.sqrt(2.0 * math.pi))

    def inv_cdf_arr(self, v):
        return float(self.mean) + float(self.std) * _ndtri(v)

    def variation(self):
        """No jumps; the density rises to pdf(mean) and falls back."""
        return [], 2.0 / (float(self.std) * math.sqrt(2.0 * math.pi))

    # every integral asks again for the same few tails, and numpy's fixed
    # costs make one _ndtri call on two points take about 0.1 ms
    @functools.lru_cache(maxsize=64)
    def spans(self, tail):
        return [tuple(self.inv_cdf_arr(np.array([tail, 1.0 - tail])).tolist())]


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

    def inv_cdf_arr(self, v):
        return -np.log1p(-v) / float(self.rate)

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
    (breaks[i], breaks[i+1]). The breaks must strictly increase, there is
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
        # per cell: float ends, the float mass before it, the float
        # antiderivative in t = x - a (descending powers, zero at t = 0, so
        # cdf_arr adds small terms to the mass before the cell instead of
        # cancelling large ones), and the exact Taylor coefficients d_k of
        # the density at a + t, from which every exact fact of the cell
        # follows: its mass sum_k d_k h^(k+1) / (k+1), with h = b - a, its
        # Bernstein coefficients and its value sum_k d_k h^k at b
        cells, before = [], Fraction(0)
        for (a, b), piece in zip(zip(self.breaks, self.breaks[1:]), self.coeffs):
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
            anti = [float(c / (k + 1)) for k, c in reversed(list(enumerate(d)))] + [0.0]
            cells.append((float(a), float(b), float(before), anti, d))
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
        for af, bf, before, anti, _ in self._cells:
            out[xs >= af] = before
            inside = (xs > af) & (xs < bf)
            if inside.any():
                out[inside] += np.polyval(anti, xs[inside] - af)
        out[xs >= self._cells[-1][1]] = 1.0  # the total integral is exactly 1
        return out

    def pdf_arr(self, xs):
        out = np.zeros_like(xs, dtype=float)
        for (a, b), piece in zip(zip(self.breaks, self.breaks[1:]), self.coeffs):
            mask = (xs > float(a)) & (xs <= float(b))
            if mask.any():
                cs = [float(c) for c in reversed(piece)]
                out[mask] = np.polyval(cs, xs[mask])
        return out

    def inv_cdf_arr(self, v):
        """x with F(x) = v, for ascending v: each cell's v form one slice,
        found by the mass before each cell, and are solved in that cell."""
        before = [cell[2] for cell in self._cells]
        out = np.empty_like(v)
        for i, start, stop in _slices(before, v):
            out[start:stop] = self._cell_inv(i, v[start:stop] - before[i])
        return out

    def _cell_inv(self, i, t):
        """x in cell i whose mass from the cell's left end is t."""
        af, bf, _, anti, d = self._cells[i]
        if len(d) <= 2:
            # density d0 + c1*(x - a): a quadratic CDF, solved in the root
            # form that does not cancel, also where d0 = 0; in place,
            # because at 10^6 draws each temporary array is 8 MB
            d0 = float(d[0])
            c1 = float(d[1]) if len(d) == 2 else 0.0
            disc = 2.0 * c1 * t
            disc += d0 * d0
            np.sqrt(np.maximum(disc, 0.0, out=disc), out=disc)
            disc += d0
            x = np.divide(2.0 * t, disc, out=disc)
            x += af
            return np.clip(x, af, bf, out=x)
        lo = np.full_like(t, af)
        hi = np.full_like(t, bf)
        for _ in range(56):
            mid = 0.5 * (lo + hi)
            ge = np.polyval(anti, mid - af) >= t
            hi = np.where(ge, mid, hi)
            lo = np.where(ge, lo, mid)
        return hi

    def variation(self):
        """The jump at every break; per cell, sum_{k>=1} |d_k| h^k bounds
        the integral of |density'|, with d_k the shifted coefficients."""
        jumps, rest, left = [], Fraction(0), Fraction(0)
        for (a, b), cell in zip(zip(self.breaks, self.breaks[1:]), self._cells):
            d = cell[4]
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
        for af, bf, _, _, d in self._cells:
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
        # the composition table of from_uniforms: per component (atoms
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
        """n i.i.d. draws of mu / total_mass; deterministic given seed.

        The blocks of ``sample_blocks(n, seed)``, joined in order: each
        block holds one ascending run per component (atoms first, then
        parts, in stored order).
        """
        out = np.empty(n)
        s = 0
        for blk in self.sample_blocks(n, seed):
            out[s:s + blk.size] = blk
            s += blk.size
        return out

    def sample_blocks(self, n, seed):
        """Yield n i.i.d. draws of mu / total_mass, ``BLOCK`` at a time.

        The uniforms are ``default_rng(seed).random(n)`` read a block at a
        time into one reused buffer, which is the same stream. Each block
        is taken to 1 - u in (0, 1], sorted and mapped by
        ``from_uniforms``, all in place, so the draws take one block of
        memory whatever n is. A block is a view of that buffer: it may be
        written to, and the next block overwrites it. A statistic that is
        symmetric in the draws, such as the mean and variance in
        ``norms.mc_norm``, sees the blocking only in the rounding of its
        sums. The sorting makes the component split of a block a pair of
        slice bounds, and each component's draws one ascending run; a
        later step-function lookup of the block is a merge only where it
        ascends overall, and a binary search per draw where parts overlap
        or are listed out of order, as in mix(0.5*normal(0,1),
        0.5*uniform(0,1)).
        """
        rng = np.random.default_rng(seed)
        buf = np.empty(min(n, BLOCK))
        for s in range(0, n, BLOCK):
            u = buf[:min(BLOCK, n - s)]
            rng.random(out=u)
            np.subtract(1.0, u, out=u)
            u.sort()
            yield self.from_uniforms(u, out=u)

    def from_uniforms(self, u, out=None):
        """Map ascending uniforms u in (0, 1] to draws of mu / total_mass.

        Composition: the component is picked from the cumulative weights
        w / total_mass (atoms first, then parts, in stored order), so on
        ascending u each component's draws are one slice of u. Within it,
        u is rescaled to v in (0, 1) and goes through the component's
        inverse CDF in one call. Each u is mapped on its own, so the draws
        do not depend on how u is cut into blocks; ``sample_blocks`` passes
        at most ``BLOCK`` at a time, so that the temporaries stay in cache.
        The draws go to ``out``, an array of u's shape, which may be u
        itself, or to a new array; u that is not ascending, or holds NaN,
        raises ValueError.
        """
        u = np.asarray(u, dtype=float)
        if not np.all(u[1:] >= u[:-1]) or np.isnan(u[:1]).any():
            raise ValueError("from_uniforms requires ascending uniforms")
        if out is None:
            out = np.empty_like(u)
        # the slice bounds are all found before the first draw is written
        for i, start, stop in _slices(self._lowers, u):
            v = np.subtract(u[start:stop], self._lowers[i], out=out[start:stop])
            v /= self._weights[i]
            out[start:stop] = self._kinds[i].inv_cdf_arr(np.minimum(v, _BELOW_ONE, out=v))
        return out

    # -- support window ------------------------------------------------------

    def essential_window(self, delta):
        """Finite (a, b) with mass outside at most delta: the hull of the
        atoms and of each part's spans(t), t = min(delta / (2 W), 1/4),
        where W is the parts' weight. A unit part has mass at most t on
        each side of the hull of its spans, so the mass outside is at most
        2 t W <= delta. A pwd's spans leave out its cells of density 0, so
        its hull ends at its outermost cells of nonzero density."""
        if not 0 < delta < float(self.total_mass):
            raise ValueError("delta must lie in (0, total_mass)")
        ends = [float(loc) for loc, _ in self.atoms]
        weight = float(sum(w for w, _ in self.parts))
        for _, kind in self.parts:
            spans = kind.spans(min(delta / (2.0 * weight), 0.25))
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
