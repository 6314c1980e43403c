"""Step functions, the triangle wave, and the approximant phi0 + s * wave.

All breakpoints, values, scales and slopes are Fractions; floats appear
only in the vectorized evaluators for quadrature, Monte Carlo and plots.
A step function is zero outside its intervals and at their endpoints,
except at its (point, value) exceptions. It is built in one walk over its
terms in linear time, sorting them only when they arrive out of order.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .intervals import IntervalUnion, NEG_INF, POS_INF, as_endpoint, as_rational


# ---------------------------------------------------------------------------
# Triangle wave


@dataclass(frozen=True)
class TriangleWave:
    """Continuous zigzag: 0 at even lattice points j/b, 1 at odd ones."""

    b: int

    def __post_init__(self):
        if self.b < 1:
            raise ValueError("frequency parameter must be a positive integer")

    def eval(self, x) -> Fraction:
        t = (as_rational(x) * self.b) % 2
        return 1 - abs(t - 1)

    def eval_arr(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if xs.ndim == 0:
            return self.eval_arr(xs.reshape(1))[0]
        # t - 2 floor(t/2) gives the wave of np.mod(t, 2) bit for bit: both
        # forms round the same t mod 2 once, as t/2 and 2 floor(t/2) are
        # exact; only t = -2^-1074, whose half rounds to -0, stays t where
        # np.mod gives 2.0, and the wave is 0 at both. No fmod, and in
        # place, as each temporary is 8 MB at 10^6 points.
        t = xs * self.b
        h = t * 0.5
        np.floor(h, out=h)
        h *= 2.0
        t -= h
        t -= 1.0
        np.abs(t, out=t)
        return np.subtract(1.0, t, out=t)

    def lattice_range(self, lo, hi) -> range:
        """The integers j with lo < j/b < hi, for the open window (lo, hi)."""
        return range(math.floor(as_rational(lo) * self.b) + 1,
                     math.ceil(as_rational(hi) * self.b))

    def lattice_points(self, lo, hi):
        """Lattice points j/b strictly inside the open window (lo, hi)."""
        return [Fraction(j, self.b) for j in self.lattice_range(lo, hi)]


def build_zigzag(eps, M) -> TriangleWave:
    """Frequency ceil(2 (M+1) / eps), in exact rational arithmetic."""
    eps = as_rational(eps)
    M = as_rational(M)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if M < 0:
        raise ValueError("M must be nonnegative")
    return TriangleWave(b=math.ceil(2 * (M + 1) / eps))


# ---------------------------------------------------------------------------
# Step functions


class StepFunction:
    """Finite combination of indicator multiples over disjoint open intervals.

    terms: tuple of (value, lo, hi) with lo < hi, sorted, disjoint, value != 0.
    exceptions: tuple of (point, value) pairs overriding the pointwise value
    at finitely many points.

    The breakpoints and the float arrays behind ``eval_arr`` are built once,
    on construction, in one walk that compares each term only with the end
    of the one before it; the terms are sorted, and checked for overlap,
    only when they arrive out of order, as ``override_on`` appends them.
    Region k is the open cell left of breakpoint k (the last one runs to
    +inf); the value at a breakpoint is 0 unless an exception overrides it.
    The float breakpoints end in a NaN, which sorts after every float and
    equals none, so the index that ``searchsorted`` returns always selects
    a region and the breakpoint to test for equality. An ascending input,
    such as a block of sorted Monte Carlo draws or a plot grid, is looked
    up by a merge instead: the breakpoints are placed among the points,
    and the output repeats the value of each run between them.
    """

    __slots__ = ("terms", "exceptions", "_pts", "_pts_f", "_region", "_point", "_runs")

    def __init__(self, terms=(), exceptions=()):
        cleaned = []
        for value, lo, hi in terms:
            v = as_rational(value)
            lo_e = as_endpoint(lo)
            hi_e = as_endpoint(hi)
            if not lo_e < hi_e:
                raise ValueError(f"interval requires lo < hi, got ({lo}, {hi})")
            if v:
                cleaned.append((v, lo_e, hi_e))
        walk = _walk_terms(cleaned)
        if walk is None:
            cleaned.sort(key=lambda t: t[1])
            walk = _walk_terms(cleaned)
            if walk is None:
                raise ValueError("step-function intervals must be disjoint")
        pts, region = walk
        self.terms = tuple(cleaned)
        exc = []
        for pt, value in exceptions:
            v = as_rational(value)
            if v:
                exc.append((as_rational(pt), v))
        exc.sort()
        for (p1, _), (p2, _) in zip(exc, exc[1:]):
            if p1 == p2:
                raise ValueError(f"duplicate exception point {p1}")
        self.exceptions = tuple(exc)

        point = [0.0] * len(pts)
        for p, v in exc:
            i = bisect.bisect_left(pts, p)
            if i == len(pts) or pts[i] != p:
                # p splits region i into two cells of the same value
                pts.insert(i, p)
                region.insert(i, region[i])
                point.insert(i, 0.0)
            point[i] = float(v)
        self._pts = tuple(pts)
        self._pts_f = np.array([float(p) for p in pts] + [math.nan])
        self._region = np.array(region)
        self._point = np.array(point)
        # region 0, point 0, region 1, ..., region k: the values of the runs
        # of an ascending input
        self._runs = np.empty(len(region) + len(point))
        self._runs[0::2] = region
        self._runs[1::2] = point

    def __eq__(self, other):
        return (
            isinstance(other, StepFunction)
            and self.terms == other.terms
            and self.exceptions == other.exceptions
        )

    def __hash__(self):
        return hash((self.terms, self.exceptions))

    def __repr__(self):
        return f"StepFunction(terms={self.terms!r}, exceptions={self.exceptions!r})"

    @classmethod
    def from_indicator(cls, u: IntervalUnion, value):
        """value times the indicator of a union of open intervals."""
        if not u.all_open():
            raise ValueError("indicator support must consist of open intervals")
        return cls(terms=[(value, iv.lo, iv.hi) for iv in u.intervals])

    # -- queries -------------------------------------------------------------

    def eval(self, x) -> Fraction:
        xq = as_rational(x)
        for pt, v in self.exceptions:
            if pt == xq:
                return v
        i = bisect.bisect_right(self.terms, xq, key=lambda t: t[1]) - 1
        if i >= 0:
            v, lo, hi = self.terms[i]
            if lo < xq < hi:
                return v
        return Fraction(0)

    def endpoints(self):
        """Finite interval endpoints plus exception points, sorted."""
        return self._pts

    def sup_norm(self) -> Fraction:
        vals = [abs(v) for v, _, _ in self.terms]
        vals += [abs(v) for _, v in self.exceptions]
        return max(vals, default=Fraction(0))

    def override_on(self, lo, hi, value):
        """Replace the function by `value` on the open interval (lo, hi)."""
        lo = as_rational(lo)
        hi = as_rational(hi)
        if not lo < hi:
            raise ValueError("override interval requires lo < hi")
        terms = []
        for v, tlo, thi in self.terms:
            if thi <= lo or tlo >= hi:
                terms.append((v, tlo, thi))
                continue
            if tlo < lo:
                terms.append((v, tlo, lo))
            if thi > hi:
                terms.append((v, hi, thi))
        terms.append((value, lo, hi))
        exceptions = [(p, v) for p, v in self.exceptions if not lo < p < hi]
        return StepFunction(terms=terms, exceptions=exceptions)

    # -- vectorized evaluation ------------------------------------------------

    def eval_arr(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if xs.ndim == 0:
            return self.eval_arr(xs.reshape(1))[0]
        if xs.ndim == 1 and np.all(xs[1:] >= xs[:-1]):  # a NaN fails it
            return self._merge_lookup(xs)
        return self._search_lookup(xs)

    def _search_lookup(self, xs):
        """Binary search of each point among the breakpoints."""
        idx = np.searchsorted(self._pts_f, xs, side="left")
        out = self._region[idx]
        hit = self._pts_f[idx] == xs
        if hit.any():
            out[hit] = self._point[idx[hit]]
        return out

    def _merge_lookup(self, xs):
        """The same values for ascending xs: each breakpoint is placed among
        the points, which then form runs of region k, breakpoint k, region
        k + 1, ..., and the output repeats each run's value."""
        pts = self._pts_f[:-1]
        ends = np.empty(2 * pts.size + 2, dtype=np.intp)
        ends[0] = 0
        ends[1:-1:2] = np.searchsorted(xs, pts, side="left")
        ends[2:-1:2] = np.searchsorted(xs, pts, side="right")
        ends[-1] = xs.size
        return np.repeat(self._runs, np.diff(ends))


def _walk_terms(terms):
    """Breakpoints and region values of sorted disjoint terms, or None when
    a term starts before the previous one ends (out of order or overlap)."""
    pts, region, prev = [], [], NEG_INF
    for v, lo, hi in terms:
        if lo != prev:
            if lo < prev:
                return None
            pts.append(lo)
            region.append(0.0)
        pts.append(hi)
        region.append(float(v))
        prev = hi
    if prev == POS_INF:
        pts.pop()
    else:
        region.append(0.0)
    return pts, region


# ---------------------------------------------------------------------------
# Sensitive approximant


@dataclass(frozen=True)
class SensitiveApproximant:
    """Y = phi0 + scale * wave, with request metadata for certification."""

    phi0: StepFunction
    scale: Fraction
    wave: TriangleWave
    eps: Fraction
    M: Fraction
    p: float

    def __post_init__(self):
        object.__setattr__(self, "scale", as_rational(self.scale))
        object.__setattr__(self, "eps", as_rational(self.eps))
        object.__setattr__(self, "M", as_rational(self.M))
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    def eval(self, x) -> Fraction:
        return self.phi0.eval(x) + self.scale * self.wave.eval(x)

    def eval_arr(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        out = self.wave.eval_arr(xs)
        out *= float(self.scale)
        out += self.phi0.eval_arr(xs)  # the same sum as phi0 + s * wave
        return out

    def min_abs_slope(self) -> Fraction:
        return self.scale * self.wave.b

    def sup_bound(self) -> Fraction:
        return self.phi0.sup_norm() + self.scale

    def _endpoints_off_lattice(self, lo, hi):
        """phi0 endpoints inside the open window that are not j/b, sorted."""
        pts = self.phi0.endpoints()
        inside = pts[bisect.bisect_right(pts, as_rational(lo)):
                     bisect.bisect_left(pts, as_rational(hi))]
        return [p for p in inside if (p * self.wave.b).denominator != 1]

    def nondiff_count(self, lo, hi) -> int:
        """len(nondiff_points(lo, hi)), without listing the lattice."""
        return (len(self.wave.lattice_range(lo, hi))
                + len(self._endpoints_off_lattice(lo, hi)))

    def nondiff_points(self, lo, hi):
        """phi0 endpoints plus wave lattice inside the open window, sorted."""
        # two disjoint sorted runs: the sort only merges them
        return sorted(self.wave.lattice_points(lo, hi)
                      + self._endpoints_off_lattice(lo, hi))

    def nondiff_floats(self, lo, hi):
        """float(x) of each of nondiff_points(lo, hi), in order, with the
        lattice taken as j / b: the integer quotient rounds correctly, as
        float(Fraction(j, b)) does, and rounding keeps the order."""
        b = self.wave.b
        return sorted([j / b for j in self.wave.lattice_range(lo, hi)]
                      + [float(p) for p in self._endpoints_off_lattice(lo, hi)])

    def slope_profile(self, lo, hi):
        """Maximal affine cells of the window with their exact slopes."""
        lo = as_rational(lo)
        hi = as_rational(hi)
        cuts = [lo] + self.nondiff_points(lo, hi) + [hi]
        out = []
        s = self.scale
        b = self.wave.b
        for clo, chi in zip(cuts, cuts[1:]):
            mid = (clo + chi) / 2
            j = math.floor(mid * b)
            sign = 1 if j % 2 == 0 else -1
            out.append((clo, chi, sign * s * b))
        return out
