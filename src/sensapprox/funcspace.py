"""Step functions, the triangle wave, and the approximant phi0 + s * wave.

Every breakpoint, value, scale and slope is exact; a float input is its
exact binary value, as ``as_rational`` reads it. A step function takes
numbers and holds each as the Python number that holds it exactly: a
finite float stays a float (-0.0 as 0.0), and any other input is
as_rational's Fraction; the open ends of the line are the floats ±inf
and the zero value is 0. It reads no certificate text: the CLI decodes
a certificate's "n/d" rows into numbers. Python compares a float, an int
and a Fraction exactly, so the step function checks and orders its terms
into one table of breakpoints and values, and reads its exact values,
its sup norm and its endpoints off the wave lattice from that table, by
plain comparisons. Its accessors hand back the numbers it holds; it
builds a Fraction of a held float only where a query returns one: eval,
sup_norm and nondiff_points. Rounded floats of its numbers appear only
in the vectorized evaluators for quadrature, Monte Carlo and plots. A
step function is zero outside its intervals and at their endpoints,
except at its (point, value) exceptions, of which it keeps only those
that change the function. It has one constructor, built in one walk over
its terms, which must arrive sorted and disjoint, in linear time.
"""

from __future__ import annotations

import bisect
import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .intervals import as_rational


# ---------------------------------------------------------------------------
# Triangle wave


@dataclass(frozen=True)
class TriangleWave:
    """Continuous zigzag: 0 at even lattice points j/b, 1 at odd ones."""

    b: int

    def __post_init__(self):
        if not isinstance(self.b, numbers.Integral) or self.b < 1:
            raise ValueError("frequency parameter must be a positive integer")
        object.__setattr__(self, "b", operator.index(self.b))  # numpy int -> int
        if self.b >= 2**1024 - 2**970:  # float(b) overflows, and eval_arr with it
            raise OverflowError(f"frequency parameter of {self.b.bit_length()} bits has no float")

    def eval(self, x) -> Fraction:
        t = (as_rational(x) * self.b) % 2
        return 1 - abs(t - 1)

    def eval_arr(self, xs, out=None, scratch=None) -> np.ndarray:
        """The wave at each point, into out, with 2 floor(t/2) in scratch;
        each is an array of xs's shape, or new where None."""
        xs = np.asarray(xs, dtype=float)
        if xs.ndim == 0:
            return self.eval_arr(xs.reshape(1))[0]
        # t - 2 floor(t/2) gives the wave of np.mod(t, 2) bit for bit: both
        # forms round the same t mod 2 once, as t/2 and 2 floor(t/2) are
        # exact; only t = -2^-1074, whose half rounds to -0, stays t where
        # np.mod gives 2.0, and the wave is 0 at both. No fmod, and in
        # place: on a verify block of 2^15 points this takes a third of the
        # time of a new array per step (2 vCPU, numpy 2.4).
        t = np.multiply(xs, self.b, out=out)
        h = np.multiply(t, 0.5, out=scratch)
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


def _number(x, ends=False):
    """x as the Python number that holds it exactly: the number that
    as_rational reads. A finite float stays itself, with -0.0 held as 0.0,
    and with ends, so does a float infinity, an open end of the line. Any
    other input is as_rational's Fraction, which raises on NaN and, but
    for ends, on the infinities."""
    if isinstance(x, float) and (math.isfinite(x) or ends and math.isinf(x)):
        return x + 0.0
    return as_rational(x)


class StepFunction:
    """Finite combination of indicator multiples over disjoint open intervals.

    terms: tuple of (value, lo, hi) with lo < hi, sorted, disjoint, value != 0.
    exceptions: tuple of (point, value) pairs overriding the pointwise value
    at finitely many points. An exception is kept only where it changes
    the function: where its value differs from that of the terms, 0 at a
    breakpoint and the region's value elsewhere. So the same terms with
    exceptions that change nothing give an equal step function.

    Every input number is held as the Python number that holds it
    exactly (see _number): a float, as the grid route's cells and a
    certificate's dyadic rows arrive, stays a float, and any other number
    is one Fraction. An open end of the line is a float infinity. The
    terms are checked and the breakpoints found on the held numbers, which
    Python compares exactly, in one walk that compares each term only with
    the end of the one before it: a term that starts before that end is
    out of order or overlaps, and raises. The walk gives the breakpoint
    table: the breakpoints, and the values of region 0, breakpoint 0,
    region 1, ..., the last region, where region k is the open cell left
    of breakpoint k (the last one runs to +inf) and the value at a
    breakpoint is 0 unless an exception overrides it. An exception is
    kept, and written into the table, where the table's value at its
    point differs; ``eval`` reads the same table. Its float copy behind
    ``eval_arr`` is each entry's float, n / d of a Fraction, which Python
    rounds correctly. ``terms``, ``exceptions`` and ``endpoints()`` hand
    back the held numbers and convert nothing; equality and the hash read
    them too, as Python's == and hash agree across a float and an equal
    Fraction.

    Both float lookups read that one float table, whose entries 2k and
    2k + 1 are region k and breakpoint k. The float breakpoints end in a
    NaN, which sorts after every float and equals none, so the index k
    that ``searchsorted`` returns always selects a region, and the
    breakpoint to test for equality. An input made of a few ascending
    runs, such as a plot grid or a block of sorted Monte Carlo draws, one
    run per component of the measure, is looked up by a merge per run
    instead: the breakpoints are placed among the run's points, which
    then fall in runs of one value each. It merges where the breakpoints
    placed, all of them in each run and each weighing two points, and a
    fixed cost per run past the first are fewer than the points; so a
    point, or a few points against a larger table, are searched.
    """

    __slots__ = ("_terms", "_exc", "_pts", "_vals", "_pts_f", "_runs", "_ids")

    def __init__(self, terms=(), exceptions=()):
        rows = []
        for value, lo, hi in terms:
            v = _number(value)
            lo_n = _number(lo, ends=True)
            hi_n = _number(hi, ends=True)
            if not lo_n < hi_n:
                raise ValueError(f"interval requires lo < hi, got ({lo}, {hi})")
            if v:
                rows.append((v, lo_n, hi_n))
        pts, vals = _walk_terms(rows)
        exc = sorted(((_number(pt), _number(value)) for pt, value in exceptions),
                     key=lambda e: e[0])
        for (p1, _), (p2, _) in zip(exc, exc[1:]):
            if p1 == p2:
                raise ValueError(f"duplicate exception point {as_rational(p1)}")

        kept = []
        for p, v in exc:
            k = _slot(pts, p)
            if v == vals[k]:
                continue  # the function has this value there already
            if k % 2:
                vals[k] = v
            else:  # p splits region k // 2 into two cells of the same value
                pts.insert(k // 2, p)
                vals[k + 1:k + 1] = [v, vals[k]]
            kept.append((p, v))
        self._terms = tuple(rows)
        self._exc = tuple(kept)
        self._pts = tuple(pts)
        self._vals = vals
        # float() of a Fraction is n / d, which Python rounds correctly
        self._pts_f = np.array(pts + [math.nan], dtype=float)
        self._runs = np.array(vals, dtype=float)
        # both float lookups read the first breakpoint of a float, and one
        # before an exception point can round to its float: it takes the
        # exception's value
        for p, v in kept:
            self._runs[2 * np.searchsorted(self._pts_f, float(p)) + 1] = float(v)
        # the index of each value run, in the smallest integer type that
        # holds them: numpy's repeat, which has no out, then makes the run
        # index of a block of 2^15 points in at most 64 KiB while a step
        # function has fewer than 2^15 breakpoints, under malloc's mmap
        # threshold, so that it reuses memory and faults in no page
        self._ids = np.arange(self._runs.size, dtype=np.min_scalar_type(self._runs.size))

    @property
    def terms(self):
        """The held (value, lo, hi) numbers; an infinite end is a float
        infinity."""
        return self._terms

    @property
    def exceptions(self):
        """The held (point, value) numbers."""
        return self._exc

    def __eq__(self, other):
        return (isinstance(other, StepFunction)
                and (self._terms, self._exc) == (other._terms, other._exc))

    def __hash__(self):
        return hash((self._terms, self._exc))

    # -- queries -------------------------------------------------------------

    def eval(self, x) -> Fraction:
        """The exact value at x, a float taken as its exact binary value,
        read from the breakpoint table."""
        return as_rational(self._vals[_slot(self._pts, _number(x))])

    def endpoints(self):
        """Finite interval endpoints plus exception points, sorted, as the
        held numbers."""
        return self._pts

    def endpoint_floats(self):
        """float(x) of each of endpoints(), as an array."""
        return self._pts_f[:-1]

    def sup_norm(self) -> Fraction:
        """The largest |value| in the table: one Fraction."""
        return as_rational(max(map(abs, self._vals)))

    # -- vectorized evaluation ------------------------------------------------

    def eval_arr(self, xs, out=None) -> np.ndarray:
        """The value at each point, into out, an array of xs's shape, or a
        new one where None; out may be xs."""
        xs = np.asarray(xs, dtype=float)
        if xs.ndim == 0:
            return self.eval_arr(xs.reshape(1))[0]
        if xs.ndim == 1:
            # an ascending run ends where the points descend or meet a NaN
            rises = xs[1:] >= xs[:-1]
            cuts = () if rises.all() else np.flatnonzero(np.logical_not(rises, out=rises)) + 1
            if 2 * (len(cuts) + 1) * self._pts_f.size + len(cuts) * _RUN_COST < xs.size:
                return self._merge_lookup(xs, cuts, out)
        if out is None:
            return self._search_lookup(xs)
        out[...] = self._search_lookup(xs)
        return out

    def _search_lookup(self, xs):
        """Binary search of each point among the breakpoints: region idx,
        or breakpoint idx where the point is on it."""
        idx = np.searchsorted(self._pts_f, xs, side="left")
        return self._runs[2 * idx + (self._pts_f[idx] == xs)]

    def _merge_lookup(self, xs, cuts=(), out=None):
        """The same values for xs made of ascending runs, each starting at
        0 or at one of cuts. Each breakpoint is placed among a run's
        points, which then fall in value runs of region k, breakpoint k,
        region k + 1, ...; two exact breakpoints can round to one float,
        and the running maximum of the value runs' ends gives the points at
        that float to the first of them, and empty value runs to the rest,
        as the binary search does. The value run of each point is written
        into out's own memory, seen as integers, over which np.take reads
        the values: it reads each index before it writes that point's
        value in the same place, and in mode clip it writes into out
        directly (mode raise would copy it first; every index is in
        range)."""
        out = np.empty(xs.shape) if out is None else out
        idx = out.view(np.int64)
        pts = self._pts_f[:-1]
        ends = np.empty(2 * pts.size + 2, dtype=np.intp)
        ends[0] = 0
        bounds = [0, *cuts, xs.size]
        for start, stop in zip(bounds, bounds[1:]):
            run = xs[start:stop]
            ends[1:-1:2] = np.searchsorted(run, pts, side="left")
            ends[2:-1:2] = np.searchsorted(run, pts, side="right")
            ends[-1] = run.size
            np.maximum.accumulate(ends, out=ends)
            idx[start:stop] = np.repeat(self._ids, np.diff(ends))
        return np.take(self._runs, idx, out=out, mode="clip")


# eval_arr merges where the merge costs less than the binary search, in
# points looked up by binary search: a merge places each breakpoint by two
# binary searches over each run, so a breakpoint costs about two points,
# and each run past the first costs _RUN_COST more, as a merge's few numpy
# calls take about as long as a binary search of 10^3 points among 10^2
# breakpoints
_RUN_COST = 1000


def _walk_terms(terms):
    """Breakpoints and value table (see _slot; 0 off the terms and at
    every breakpoint) of sorted disjoint terms; a term that starts before
    the previous one ends is out of order or overlaps, and raises
    ValueError."""
    pts, vals, prev = [], [], -math.inf
    for v, lo, hi in terms:
        if lo < prev:
            raise ValueError("step-function intervals must be sorted and disjoint")
        if lo != prev:
            pts.append(lo)
            vals += [0, 0]
        pts.append(hi)
        vals += [v, 0]
        prev = hi
    if prev == math.inf:
        pts.pop()
        vals.pop()
    else:
        vals.append(0)
    return pts, vals


def _slot(pts, x):
    """The index of the value at the number x in a step function's value
    table, which lists region 0, breakpoint 0, region 1, ..., the last
    region: 2 i + 1 if x is breakpoint i, else 2 i for the region i that
    holds it."""
    i = bisect.bisect_left(pts, x)
    return 2 * i + (i < len(pts) and pts[i] == x)


# ---------------------------------------------------------------------------
# Sensitive approximant


@dataclass(frozen=True)
class SensitiveApproximant:
    """Y = phi0 + scale * wave; the request it answers is the
    Certificate's."""

    phi0: StepFunction
    scale: Fraction
    wave: TriangleWave

    def __post_init__(self):
        object.__setattr__(self, "scale", as_rational(self.scale))
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    def eval(self, x) -> Fraction:
        return self.phi0.eval(x) + self.scale * self.wave.eval(x)

    def eval_arr(self, xs, out=None, scratch=None) -> np.ndarray:
        """Y at each point, into out, with scratch for the wave's floors
        and then phi0's values; each is an array of xs's shape, or new
        where None."""
        xs = np.asarray(xs, dtype=float)
        out = self.wave.eval_arr(xs, out=out, scratch=scratch)
        out *= float(self.scale)
        out += self.phi0.eval_arr(xs, out=scratch)  # the same sum as phi0 + s * wave
        return out

    def min_abs_slope(self) -> Fraction:
        return self.scale * self.wave.b

    def sup_bound(self) -> Fraction:
        return self.phi0.sup_norm() + self.scale

    def _endpoints_off_lattice(self, lo, hi):
        """phi0 endpoints inside the open window that are not j/b, sorted,
        as the held numbers n/d: n b is no multiple of d."""
        pts = self.phi0.endpoints()
        inside = pts[bisect.bisect_right(pts, as_rational(lo)):
                     bisect.bisect_left(pts, as_rational(hi))]
        b = self.wave.b
        off = []
        for x in inside:
            n, d = x.as_integer_ratio()
            if n * b % d:
                off.append(x)
        return off

    def nondiff_count(self, lo, hi) -> int:
        """len(nondiff_points(lo, hi)), without listing the lattice; the
        range's ends are subtracted, as len() of a range fails past
        2^63 - 1 points."""
        lattice = self.wave.lattice_range(lo, hi)
        return (max(0, lattice.stop - lattice.start)
                + len(self._endpoints_off_lattice(lo, hi)))

    def nondiff_points(self, lo, hi):
        """phi0 endpoints plus wave lattice inside the open window, sorted."""
        # two disjoint sorted runs: the sort only merges them
        return sorted(self.wave.lattice_points(lo, hi)
                      + [as_rational(x) for x in self._endpoints_off_lattice(lo, hi)])

    def nondiff_floats(self, lo, hi):
        """float(x) of each of nondiff_points(lo, hi), in order, with each
        lattice point taken as the integer quotient j / b, which rounds
        correctly, as float(Fraction(j, b)) does; rounding keeps the order."""
        b = self.wave.b
        return sorted([j / b for j in self.wave.lattice_range(lo, hi)]
                      + [float(x) for x in self._endpoints_off_lattice(lo, hi)])
