"""Exact interval-union algebra on the real line.

Endpoints are Fractions (a float becomes its exact binary value, see
``as_rational``) or +/-infinity; infinite endpoints are open.
Unions are kept in normal form: sorted, pairwise disjoint, adjacent
intervals not mergeable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

NEG_INF = -math.inf
POS_INF = math.inf


def as_rational(x, ends=False) -> Fraction:
    """The one exact rational of an input number: a Fraction as is, an int
    exactly, a float as its exact binary value Fraction(x) (0.1 ->
    3602879701896397/2^55), a string, such as a decimal "0.1", as Fraction
    reads it. NaN raises ValueError, and so does ±inf unless ends."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float) and not math.isfinite(x):
        if ends and math.isinf(x):
            return x
        raise ValueError(f"expected a finite number, got {x!r}")
    return Fraction(x)


def uniform_grid_floats(lo, hi, n):
    """float(x) of each of the n + 1 points x = lo + (hi - lo) i / n: the
    numerators over the common denominator d n of lo, hi and n, divided as
    integers, which rounds correctly, as float(x) does."""
    lo, hi = as_rational(lo), as_rational(hi)
    d = math.lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (d // lo.denominator)
    step = hi.numerator * (d // hi.denominator) - a
    den = d * n
    return [(a * n + step * i) / den for i in range(n + 1)]


@dataclass(frozen=True)
class Interval:
    lo: object
    lo_closed: bool
    hi: object
    hi_closed: bool

    def __post_init__(self):
        object.__setattr__(self, "lo", as_rational(self.lo, ends=True))
        object.__setattr__(self, "hi", as_rational(self.hi, ends=True))
        if self.lo == NEG_INF and self.lo_closed:
            raise ValueError("infinite endpoint must be open")
        if self.hi == POS_INF and self.hi_closed:
            raise ValueError("infinite endpoint must be open")
        if self.lo > self.hi:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")
        if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
            raise ValueError("degenerate interval must be closed on both sides")

    @property
    def is_open(self):
        return not self.lo_closed and not self.hi_closed

    def contains(self, x):
        if self.lo < x < self.hi:
            return True
        if x == self.lo and self.lo_closed:
            return True
        if x == self.hi and self.hi_closed:
            return True
        return False

    def intersect(self, other):
        """Intersection with another interval, or None if empty."""
        if self.lo > other.lo or (self.lo == other.lo and not self.lo_closed):
            lo, lo_closed = self.lo, self.lo_closed
        else:
            lo, lo_closed = other.lo, other.lo_closed
        if self.lo == other.lo:
            lo_closed = self.lo_closed and other.lo_closed
        if self.hi < other.hi or (self.hi == other.hi and not self.hi_closed):
            hi, hi_closed = self.hi, self.hi_closed
        else:
            hi, hi_closed = other.hi, other.hi_closed
        if self.hi == other.hi:
            hi_closed = self.hi_closed and other.hi_closed
        if lo > hi:
            return None
        if lo == hi and not (lo_closed and hi_closed):
            return None
        return Interval(lo, lo_closed, hi, hi_closed)


def open_interval(lo, hi):
    return Interval(lo, False, hi, False)


def closed_interval(lo, hi):
    return Interval(lo, True, hi, True)


def point(x):
    return Interval(x, True, x, True)


def _mergeable(a: Interval, b: Interval):
    # assumes a.lo <= b.lo after sorting
    if a.hi > b.lo:
        return True
    if a.hi == b.lo and (a.hi_closed or b.lo_closed):
        return True
    return False


def _merge(a: Interval, b: Interval):
    if b.hi > a.hi or (b.hi == a.hi and b.hi_closed):
        hi, hi_closed = b.hi, b.hi_closed
    else:
        hi, hi_closed = a.hi, a.hi_closed
    if a.hi == b.hi:
        hi_closed = a.hi_closed or b.hi_closed
    return Interval(a.lo, a.lo_closed, hi, hi_closed)


class IntervalUnion:
    """Finite union of intervals in normal form."""

    __slots__ = ("intervals",)

    def __init__(self, intervals=()):
        ivs = sorted(intervals, key=lambda i: (i.lo, not i.lo_closed))
        merged = []
        for iv in ivs:
            if merged and _mergeable(merged[-1], iv):
                merged[-1] = _merge(merged[-1], iv)
            else:
                merged.append(iv)
        self.intervals = tuple(merged)

    def __eq__(self, other):
        return isinstance(other, IntervalUnion) and self.intervals == other.intervals

    def __hash__(self):
        return hash(self.intervals)

    def __repr__(self):
        parts = []
        for iv in self.intervals:
            lb = "[" if iv.lo_closed else "("
            rb = "]" if iv.hi_closed else ")"
            parts.append(f"{lb}{iv.lo}, {iv.hi}{rb}")
        return "IntervalUnion(" + " u ".join(parts) + ")" if parts else "IntervalUnion(empty)"

    @property
    def is_empty(self):
        return not self.intervals

    def all_open(self):
        return all(iv.is_open for iv in self.intervals)

    def contains_point(self, x):
        return any(iv.contains(x) for iv in self.intervals)

    def union(self, other):
        return IntervalUnion(self.intervals + other.intervals)

    def complement(self):
        out = []
        # cursor_closed: whether the cursor point itself is uncovered
        cursor, cursor_closed = NEG_INF, False
        for iv in self.intervals:
            if cursor < iv.lo:
                out.append(Interval(cursor, cursor_closed, iv.lo, not iv.lo_closed))
            elif cursor == iv.lo and cursor_closed and not iv.lo_closed:
                out.append(point(cursor))
            cursor = iv.hi
            cursor_closed = not iv.hi_closed
        if cursor < POS_INF:
            out.append(Interval(cursor, cursor_closed, POS_INF, False))
        return IntervalUnion(out)

    def intersect(self, other):
        out = []
        for a in self.intervals:
            for b in other.intervals:
                iv = a.intersect(b)
                if iv is not None:
                    out.append(iv)
        return IntervalUnion(out)

    def difference(self, other):
        return self.intersect(other.complement())

    def superset_of(self, other):
        return other.difference(self).is_empty
